//! Transport compression: an LZ77 + canonical-Huffman codec, built from
//! scratch (the same two-stage shape as DEFLATE, radically simplified).
//!
//! The paper ships snapshots uncompressed (and compresses only VM overlays,
//! with LZMA). Snapshot text — decimal float litanies — is extremely
//! compressible (14 distinct characters ≈ 3.8 bits each), so "would
//! compression change the partial-inference trade-off?" is a natural
//! what-if; the `compression` bench answers it with this codec.
//!
//! Stage 1 (LZ77) emits tokens:
//! * `0x00, len:u16le, bytes...` — literal run;
//! * `0x01, len:u16le, dist:u32le` — copy `len` bytes starting `dist`
//!   bytes back in the output.
//!
//! Stage 2 entropy-codes the token stream with a per-buffer canonical
//! Huffman table (256-byte code-length header).

use crate::NetError;

const MIN_MATCH: usize = 6;
const MAX_MATCH: usize = u16::MAX as usize;
const WINDOW: usize = 1 << 16;
const HASH_BITS: usize = 15;

fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses a buffer (LZ77 then Huffman). Always succeeds;
/// incompressible input grows by the ~264-byte table header plus a few
/// bytes per 64 KiB of literals.
pub fn compress(data: &[u8]) -> Vec<u8> {
    huffman_encode(&lz_compress(data))
}

/// Decompresses a buffer produced by [`compress`].
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] for malformed streams.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, NetError> {
    lz_decompress(&huffman_decode(data)?)
}

/// Stage 1 only: LZ77 token stream.
fn lz_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, data: &[u8], mut from: usize, to: usize| {
        while from < to {
            let chunk = (to - from).min(u16::MAX as usize);
            out.push(0x00);
            out.extend_from_slice(&(chunk as u16).to_le_bytes());
            out.extend_from_slice(&data[from..from + chunk]);
            from += chunk;
        }
    };

    while i + 4 <= data.len() {
        let h = hash4(&data[i..]);
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX && i - candidate <= WINDOW {
            // Extend the match.
            let mut len = 0usize;
            let max = (data.len() - i).min(MAX_MATCH);
            while len < max && data[candidate + len] == data[i + len] {
                len += 1;
            }
            if len >= MIN_MATCH {
                flush_literals(&mut out, data, literal_start, i);
                out.push(0x01);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&((i - candidate) as u32).to_le_bytes());
                // Index a few positions inside the match so later matches
                // can anchor there (cheap middle ground vs. full indexing).
                let step = (len / 8).max(1);
                let mut j = i + 1;
                while j + 4 <= data.len() && j < i + len {
                    table[hash4(&data[j..])] = j;
                    j += step;
                }
                i += len;
                literal_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, data, literal_start, data.len());
    out
}

/// Stage 1 inverse: decodes an LZ77 token stream.
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] for malformed streams.
fn lz_decompress(data: &[u8]) -> Result<Vec<u8>, NetError> {
    let corrupt = || NetError::Corrupt("truncated or malformed LZ stream".to_string());
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0usize;
    while i < data.len() {
        let tag = data[i];
        i += 1;
        match tag {
            0x00 => {
                if i + 2 > data.len() {
                    return Err(corrupt());
                }
                let len = u16::from_le_bytes([data[i], data[i + 1]]) as usize;
                i += 2;
                if i + len > data.len() {
                    return Err(corrupt());
                }
                out.extend_from_slice(&data[i..i + len]);
                i += len;
            }
            0x01 => {
                if i + 6 > data.len() {
                    return Err(corrupt());
                }
                let len = u16::from_le_bytes([data[i], data[i + 1]]) as usize;
                let dist = u32::from_le_bytes([data[i + 2], data[i + 3], data[i + 4], data[i + 5]])
                    as usize;
                i += 6;
                if dist == 0 || dist > out.len() {
                    return Err(corrupt());
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (dist < len repeats).
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
            _ => return Err(corrupt()),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------- Huffman

/// Builds per-symbol code lengths from frequencies (plain Huffman tree by
/// repeated pairing of the two lightest subtrees; lengths are unbounded and
/// the decoder walks them bit-by-bit, so no depth limiting is needed).
fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    #[derive(Clone)]
    struct Node {
        weight: u64,
        symbols: Vec<u8>,
    }
    let mut lengths = [0u8; 256];
    let mut nodes: Vec<Node> = freq
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0)
        .map(|(s, &w)| Node {
            weight: w,
            symbols: vec![s as u8],
        })
        .collect();
    if nodes.is_empty() {
        return lengths;
    }
    if nodes.len() == 1 {
        lengths[nodes[0].symbols[0] as usize] = 1;
        return lengths;
    }
    while nodes.len() > 1 {
        // Smallest two by weight (stable: lowest symbol set first).
        nodes.sort_by_key(|n| std::cmp::Reverse(n.weight));
        let (Some(a), Some(b)) = (nodes.pop(), nodes.pop()) else {
            break; // unreachable: the loop guard keeps len > 1
        };
        for &s in a.symbols.iter().chain(&b.symbols) {
            lengths[s as usize] += 1;
        }
        let mut symbols = a.symbols;
        symbols.extend(b.symbols);
        nodes.push(Node {
            weight: a.weight + b.weight,
            symbols,
        });
    }
    lengths
}

/// Canonical code assignment: symbols sorted by (length, value).
fn canonical_codes(lengths: &[u8; 256]) -> [(u32, u8); 256] {
    let mut codes = [(0u32, 0u8); 256];
    let mut order: Vec<u8> = (0u16..256).map(|s| s as u8).collect();
    order.sort_by_key(|&s| (lengths[s as usize], s));
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &s in &order {
        let len = lengths[s as usize];
        if len == 0 {
            continue;
        }
        code <<= len - prev_len;
        codes[s as usize] = (code, len);
        code += 1;
        prev_len = len;
    }
    codes
}

/// Entropy-encodes a buffer: `256-byte length table | u64le payload length
/// | bitstream` (MSB-first).
fn huffman_encode(data: &[u8]) -> Vec<u8> {
    let mut freq = [0u64; 256];
    for &b in data {
        freq[b as usize] += 1;
    }
    let lengths = code_lengths(&freq);
    let codes = canonical_codes(&lengths);

    let mut out = Vec::with_capacity(data.len() / 2 + 272);
    out.extend_from_slice(&lengths);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for &b in data {
        let (code, len) = codes[b as usize];
        acc = (acc << len) | code as u64;
        bits += len as u32;
        while bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    if bits > 0 {
        out.push((acc << (8 - bits)) as u8);
    }
    out
}

/// Inverse of [`huffman_encode`].
fn huffman_decode(data: &[u8]) -> Result<Vec<u8>, NetError> {
    let corrupt = |msg: &str| NetError::Corrupt(format!("huffman: {msg}"));
    if data.len() < 264 {
        return Err(corrupt("missing header"));
    }
    let mut lengths = [0u8; 256];
    lengths.copy_from_slice(&data[..256]);
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&data[256..264]);
    let n = u64::from_le_bytes(len_bytes) as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    // Canonical decoding state: for each length, the first code and the
    // symbols of that length in canonical order.
    let mut order: Vec<u8> = (0u16..256).map(|s| s as u8).collect();
    order.sort_by_key(|&s| (lengths[s as usize], s));
    let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
    if max_len == 0 {
        return Err(corrupt("empty code table for nonempty payload"));
    }
    let mut first_code = vec![0u32; max_len + 2];
    let mut first_index = vec![0usize; max_len + 2];
    let mut symbols: Vec<u8> = Vec::new();
    {
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &order {
            let len = lengths[s as usize];
            if len == 0 {
                continue;
            }
            if len != prev_len {
                code <<= len - prev_len;
                first_code[len as usize] = code;
                first_index[len as usize] = symbols.len();
                prev_len = len;
            }
            symbols.push(s);
            code += 1;
        }
    }
    // Count of codes per length, for bounds checks.
    let mut count = vec![0u32; max_len + 1];
    for &s in &order {
        let len = lengths[s as usize] as usize;
        if len > 0 {
            count[len] += 1;
        }
    }

    let mut out = Vec::with_capacity(n);
    let payload = &data[264..];
    let mut bit_pos = 0usize;
    let total_bits = payload.len() * 8;
    while out.len() < n {
        let mut code = 0u32;
        let mut len = 0usize;
        loop {
            if bit_pos >= total_bits {
                return Err(corrupt("bitstream exhausted"));
            }
            let bit = (payload[bit_pos / 8] >> (7 - bit_pos % 8)) & 1;
            bit_pos += 1;
            code = (code << 1) | bit as u32;
            len += 1;
            if len > max_len {
                return Err(corrupt("code longer than table"));
            }
            if count[len] > 0 && code >= first_code[len] && code < first_code[len] + count[len] {
                let idx = first_index[len] + (code - first_code[len]) as usize;
                out.push(symbols[idx]);
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let packed = compress(data);
        assert_eq!(decompress(&packed).unwrap(), data, "roundtrip failed");
        packed.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcde");
        roundtrip(b"aaaaaaa");
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data = b"abcdefgh".repeat(1000);
        let packed = roundtrip(&data);
        assert!(packed < data.len() / 20, "{packed} vs {}", data.len());
    }

    #[test]
    fn float_text_compresses_meaningfully() {
        // The workload that matters: snapshot feature text.
        let mut text = String::from("feature = new Float32Array([");
        let mut z = 1u64;
        for i in 0..20_000 {
            if i > 0 {
                text.push(',');
            }
            z = z.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((z >> 33) % 1_000_000) as f64 / 125_000.0 - 2.0;
            text.push_str(&format!("{v}"));
        }
        text.push_str("]);");
        let packed = roundtrip(text.as_bytes());
        let ratio = text.len() as f64 / packed as f64;
        assert!(ratio > 1.5, "ratio {ratio}");
    }

    #[test]
    fn incompressible_input_grows_only_slightly() {
        let data: Vec<u8> = (0..100_000u64)
            .map(|i| {
                let z = i.wrapping_mul(0x9E3779B97F4A7C15);
                (z >> 33) as u8
            })
            .collect();
        let packed = roundtrip(&data);
        assert!(packed < data.len() + data.len() / 50 + 300);
    }

    #[test]
    fn overlapping_matches_roundtrip() {
        // "aaaaaa..." forces dist < len copies.
        let data = vec![b'a'; 10_000];
        let packed = roundtrip(&data);
        // A handful of LZ tokens plus the fixed Huffman header.
        assert!(packed < 400, "{packed}");
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        // LZ layer.
        assert!(lz_decompress(&[0x02]).is_err()); // unknown tag
        assert!(lz_decompress(&[0x00, 10, 0, 1]).is_err()); // truncated literals
        assert!(lz_decompress(&[0x01, 4, 0, 1, 0, 0, 0]).is_err()); // dist > output
        assert!(lz_decompress(&[0x01, 4, 0]).is_err()); // truncated match
                                                        // Huffman layer.
        assert!(decompress(&[]).is_err()); // no header
        let mut header = vec![0u8; 264];
        header[260] = 1; // claims a huge payload with an empty code table
        assert!(decompress(&header).is_err());
        // Truncated bitstream: valid table, payload cut short.
        let good = compress(b"hello hello hello hello hello!");
        assert!(decompress(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn huffman_alone_roundtrips_various_shapes() {
        for data in [
            &b""[..],
            b"z",
            b"abab",
            b"the quick brown fox jumps over the lazy dog",
        ] {
            let enc = huffman_encode(data);
            assert_eq!(huffman_decode(&enc).unwrap(), data);
        }
        let skewed: Vec<u8> = (0..10_000)
            .map(|i| if i % 17 == 0 { b'x' } else { b'a' })
            .collect();
        let enc = huffman_encode(&skewed);
        assert!(enc.len() < skewed.len() / 4);
        assert_eq!(huffman_decode(&enc).unwrap(), skewed);
    }

    #[test]
    fn long_matches_split_correctly() {
        let data = b"x".repeat(200_000);
        roundtrip(&data);
    }
}
