//! Decimal text for `Float32Array` payloads without `core::fmt`, written
//! and read back.
//!
//! A snapshot ships feature maps and canvas pixels as MiniJS source, and a
//! JS number is an `f64`: each `f32` is widened and printed as the shortest
//! decimal that reads back to that `f64`, positionally, never with an
//! exponent — byte for byte what `format!("{}", v as f64)` writes, which is
//! what makes the paper's feature data ≈ 19 bytes a value on the wire.
//! `Display` gets there through Grisu, `Formatter::pad` and a growth check
//! per write; this module gets there with three 64 × 128-bit products
//! against a table of powers of ten (Schubfach, R. Giulietti 2020, in the
//! 128-bit formulation of A. Bolz's Drachennest) and lays the digits out two
//! at a time in a stack scratch.
//!
//! The domain is the 2³² `f32` bit patterns, not `f64`: the table holds only
//! the 84 powers a widened `f32` can ask for, so [`render_f32_literal`] is
//! total on its argument type and arbitrary `f64`s
//! ([`number_literal`](crate::ast::number_literal)) stay on `fmt`. Equality
//! with `Display` is checked over every non-negative finite pattern by the
//! `#[ignore]`d test below (`ci.sh` runs a 1/256 sample of it).
//!
//! The reader, [`scan_f32_element`], takes the same alphabet back without
//! `str::parse` where integers can decide it: the digits go into a `u64`
//! eight bytes a step, and an exact `u128` comparison with the rounding
//! interval of the candidate's `f64` decides whether the decimal is an
//! `f32`. Anything else falls back to `str::parse`, which the tests use as
//! the oracle on the printed text of every non-negative finite pattern.
//!
//! This is the one module of the workspace that starts threads. A list of
//! at least two [`MIN_PART`]s of values is written and read in [`parts`],
//! one a core, each on a scoped thread into a buffer the caller reserved,
//! and joined in order: the text and the values are the serial ones for
//! every core count, so no output depends on the host.

use std::sync::OnceLock;

/// The first power of ten in [`POW10`].
const MIN_POW10: i32 = -22;

/// `g(k) = ⌈10ᵏ · 2^(127 − ⌊log₂ 10ᵏ⌋)⌉` as `(high, low)` words, for
/// `k` in `-22..=61`: a widened `f32` is `c · 2^q` with `q` in `-201..=75`,
/// and the digit generator scales it by `10^-⌊log₁₀ 2^q⌋`. A unit test
/// rebuilds every entry with schoolbook arithmetic.
#[rustfmt::skip]
const POW10: [(u64, u64); 84] = [
    (0xf1c90080baf72cb1, 0x5324c68b12dd6339), // -22
    (0x971da05074da7bee, 0xd3f6fc16ebca5e04), // -21
    (0xbce5086492111aea, 0x88f4bb1ca6bcf585), // -20
    (0xec1e4a7db69561a5, 0x2b31e9e3d06c32e6), // -19
    (0x9392ee8e921d5d07, 0x3aff322e62439fd0), // -18
    (0xb877aa3236a4b449, 0x09befeb9fad487c3), // -17
    (0xe69594bec44de15b, 0x4c2ebe687989a9b4), // -16
    (0x901d7cf73ab0acd9, 0x0f9d37014bf60a11), // -15
    (0xb424dc35095cd80f, 0x538484c19ef38c95), // -14
    (0xe12e13424bb40e13, 0x2865a5f206b06fba), // -13
    (0x8cbccc096f5088cb, 0xf93f87b7442e45d4), // -12
    (0xafebff0bcb24aafe, 0xf78f69a51539d749), // -11
    (0xdbe6fecebdedd5be, 0xb573440e5a884d1c), // -10
    (0x89705f4136b4a597, 0x31680a88f8953031), // -9
    (0xabcc77118461cefc, 0xfdc20d2b36ba7c3e), // -8
    (0xd6bf94d5e57a42bc, 0x3d32907604691b4d), // -7
    (0x8637bd05af6c69b5, 0xa63f9a49c2c1b110), // -6
    (0xa7c5ac471b478423, 0x0fcf80dc33721d54), // -5
    (0xd1b71758e219652b, 0xd3c36113404ea4a9), // -4
    (0x83126e978d4fdf3b, 0x645a1cac083126ea), // -3
    (0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4), // -2
    (0xcccccccccccccccc, 0xcccccccccccccccd), // -1
    (0x8000000000000000, 0x0000000000000000), // 0
    (0xa000000000000000, 0x0000000000000000), // 1
    (0xc800000000000000, 0x0000000000000000), // 2
    (0xfa00000000000000, 0x0000000000000000), // 3
    (0x9c40000000000000, 0x0000000000000000), // 4
    (0xc350000000000000, 0x0000000000000000), // 5
    (0xf424000000000000, 0x0000000000000000), // 6
    (0x9896800000000000, 0x0000000000000000), // 7
    (0xbebc200000000000, 0x0000000000000000), // 8
    (0xee6b280000000000, 0x0000000000000000), // 9
    (0x9502f90000000000, 0x0000000000000000), // 10
    (0xba43b74000000000, 0x0000000000000000), // 11
    (0xe8d4a51000000000, 0x0000000000000000), // 12
    (0x9184e72a00000000, 0x0000000000000000), // 13
    (0xb5e620f480000000, 0x0000000000000000), // 14
    (0xe35fa931a0000000, 0x0000000000000000), // 15
    (0x8e1bc9bf04000000, 0x0000000000000000), // 16
    (0xb1a2bc2ec5000000, 0x0000000000000000), // 17
    (0xde0b6b3a76400000, 0x0000000000000000), // 18
    (0x8ac7230489e80000, 0x0000000000000000), // 19
    (0xad78ebc5ac620000, 0x0000000000000000), // 20
    (0xd8d726b7177a8000, 0x0000000000000000), // 21
    (0x878678326eac9000, 0x0000000000000000), // 22
    (0xa968163f0a57b400, 0x0000000000000000), // 23
    (0xd3c21bcecceda100, 0x0000000000000000), // 24
    (0x84595161401484a0, 0x0000000000000000), // 25
    (0xa56fa5b99019a5c8, 0x0000000000000000), // 26
    (0xcecb8f27f4200f3a, 0x0000000000000000), // 27
    (0x813f3978f8940984, 0x4000000000000000), // 28
    (0xa18f07d736b90be5, 0x5000000000000000), // 29
    (0xc9f2c9cd04674ede, 0xa400000000000000), // 30
    (0xfc6f7c4045812296, 0x4d00000000000000), // 31
    (0x9dc5ada82b70b59d, 0xf020000000000000), // 32
    (0xc5371912364ce305, 0x6c28000000000000), // 33
    (0xf684df56c3e01bc6, 0xc732000000000000), // 34
    (0x9a130b963a6c115c, 0x3c7f400000000000), // 35
    (0xc097ce7bc90715b3, 0x4b9f100000000000), // 36
    (0xf0bdc21abb48db20, 0x1e86d40000000000), // 37
    (0x96769950b50d88f4, 0x1314448000000000), // 38
    (0xbc143fa4e250eb31, 0x17d955a000000000), // 39
    (0xeb194f8e1ae525fd, 0x5dcfab0800000000), // 40
    (0x92efd1b8d0cf37be, 0x5aa1cae500000000), // 41
    (0xb7abc627050305ad, 0xf14a3d9e40000000), // 42
    (0xe596b7b0c643c719, 0x6d9ccd05d0000000), // 43
    (0x8f7e32ce7bea5c6f, 0xe4820023a2000000), // 44
    (0xb35dbf821ae4f38b, 0xdda2802c8a800000), // 45
    (0xe0352f62a19e306e, 0xd50b2037ad200000), // 46
    (0x8c213d9da502de45, 0x4526f422cc340000), // 47
    (0xaf298d050e4395d6, 0x9670b12b7f410000), // 48
    (0xdaf3f04651d47b4c, 0x3c0cdd765f114000), // 49
    (0x88d8762bf324cd0f, 0xa5880a69fb6ac800), // 50
    (0xab0e93b6efee0053, 0x8eea0d047a457a00), // 51
    (0xd5d238a4abe98068, 0x72a4904598d6d880), // 52
    (0x85a36366eb71f041, 0x47a6da2b7f864750), // 53
    (0xa70c3c40a64e6c51, 0x999090b65f67d924), // 54
    (0xd0cf4b50cfe20765, 0xfff4b4e3f741cf6d), // 55
    (0x82818f1281ed449f, 0xbff8f10e7a8921a5), // 56
    (0xa321f2d7226895c7, 0xaff72d52192b6a0e), // 57
    (0xcbea6f8ceb02bb39, 0x9bf4f8a69f764491), // 58
    (0xfee50b7025c36a08, 0x02f236d04753d5b5), // 59
    (0x9f4f2726179a2245, 0x01d762422c946591), // 60
    (0xc722f0ef9d80aad6, 0x424d3ad2b7b97ef6), // 61
];

/// The smallest seventeen-digit number.
const TEN_TO_16: u64 = 10_000_000_000_000_000;

/// `00`, `01`, … `99`.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[b'0'; 2]; 100];
    let mut i = 0;
    while i < table.len() {
        table[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    table
};

/// The most bytes one element touches, separator included: `,(-0.`, 44
/// zeros, a seventeen-digit field and, over the field's last digit, `)` —
/// which is `-1e-45` to the byte, the longest element there is. (`f32::MAX`
/// is 39 integer digits.)
const ELEMENT_ROOM: usize = 66;

/// Elements are composed here and appended a chunk at a time, so the
/// checked conversion to `str` and the `String`'s own bookkeeping are paid
/// per kilobyte, not per float.
const CHUNK: usize = 1024;

/// Bytes reserved a value for a rendered list: the printer spends 19.4 on
/// the paper's maps, and an element longer than this is rare.
const RESERVED_PER_VALUE: usize = 20;

/// The fewest values worth a thread of their own. A scoped spawn and join
/// takes 10 µs at best and 20 µs on average on a 2-core Xeon, and a value
/// ~23 ns to render and ~18 ns to read, so a part of 4 096 values is 74–94
/// µs of work: four times what handing it over costs on average. A list
/// shorter than two parts stays on the calling thread.
const MIN_PART: usize = 4096;

/// How many parts a list of `n` values is cut into: one a core, each of at
/// least [`MIN_PART`] values. One core makes it 1, the serial code.
fn parts(n: usize) -> usize {
    // `available_parallelism` reads cgroup files: ~9–50 µs a call.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    cores.min(n / MIN_PART).max(1)
}

/// Appends `new Float32Array([…])` holding `data` to `out`.
///
/// Each element is the widened value's `Display` text; a negative value is
/// `(-x)` because the grammar has no negative literals, negative zero is the
/// bare `-0` `Display` gives it, and the non-finite values are the
/// divisions that produce them: `(0/0)`, `(1/0)`, `(-1/0)`. This is the
/// alphabet [`scan_f32_element`] reads back. A list of at least two
/// [`MIN_PART`]s is written in [`parts`], one a core.
pub(crate) fn render_f32_literal(data: &[f32], out: &mut String) {
    render_in_parts(data, parts(data.len()), out);
}

/// [`render_f32_literal`] with `data` cut into `k` contiguous parts. The
/// caller writes the first, a scoped thread each later one into a buffer
/// reserved here at the rate `out` is, and the texts are joined in order;
/// whatever a part left unwritten (its buffer was full, or no thread took
/// it) is written after the join. The text is the same for every `k`.
fn render_in_parts(data: &[f32], k: usize, out: &mut String) {
    out.reserve(data.len() * RESERVED_PER_VALUE + 20);
    out.push_str("new Float32Array([");
    if k < 2 {
        push_elements(data, true, out, false);
    } else {
        let mut parts = data.chunks(data.len().div_ceil(k).max(1));
        let head = parts.next().unwrap_or_default();
        // The workers' buffers are reserved here: what a thread allocates
        // comes from a glibc arena of its own and stays resident.
        let mut tails: Vec<(&[f32], String, usize)> = parts
            .map(|part| {
                let room = part.len() * RESERVED_PER_VALUE + CHUNK;
                (part, String::with_capacity(room), 0)
            })
            .collect();
        std::thread::scope(|s| {
            for (part, text, done) in &mut tails {
                // A part no thread took is written after the join.
                let _ = std::thread::Builder::new()
                    .spawn_scoped(s, move || *done = push_elements(part, false, text, true));
            }
            push_elements(head, true, out, false);
        });
        for (part, text, done) in &tails {
            out.push_str(text);
            push_elements(&part[*done..], false, out, false);
        }
    }
    out.push_str("])");
}

/// Appends `data`'s elements to `out`, each after a comma unless it opens
/// the list, composed a chunk at a time; returns how many it appended.
/// With `within`, it stops before a chunk could outgrow `out`'s capacity.
fn push_elements(data: &[f32], opens: bool, out: &mut String, within: bool) -> usize {
    let mut chunk = [0u8; CHUNK];
    let mut done = 0;
    while done < data.len() && !(within && out.capacity() - out.len() < CHUNK) {
        let (len, written) = write_elements(&data[done..], opens && done == 0, &mut chunk);
        push_ascii(out, &chunk[..len]);
        done += written;
    }
    done
}

/// Writes elements of `data` into `chunk` while one more surely fits,
/// each after a comma unless it opens the list; returns the bytes and the
/// elements written.
fn write_elements(data: &[f32], opens: bool, chunk: &mut [u8; CHUNK]) -> (usize, usize) {
    let mut len = 0;
    for (i, &v) in data.iter().enumerate() {
        if len + ELEMENT_ROOM > CHUNK {
            return (len, i);
        }
        if i > 0 || !opens {
            chunk[len] = b',';
            len += 1;
        }
        len += write_element(&mut chunk[len..], v);
    }
    (len, data.len())
}

/// Every byte composed above is an ASCII digit or punctuation mark, so the
/// conversion cannot fail; it is checked all the same because this crate
/// forbids `unsafe`.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        out.push_str(text);
    }
}

/// Writes one element at the start of `buf`, returning its length; with
/// the separator before it, it stays inside [`ELEMENT_ROOM`].
fn write_element(buf: &mut [u8], v: f32) -> usize {
    let negative = v.is_sign_negative();
    if !v.is_finite() || v == 0.0 {
        let text: &[u8] = match (v.is_nan(), v == 0.0, negative) {
            (true, _, _) => b"(0/0)",
            (_, true, false) => b"0",
            (_, true, true) => b"-0",
            (_, _, false) => b"(1/0)",
            (_, _, true) => b"(-1/0)",
        };
        buf[..text.len()].copy_from_slice(text);
        return text.len();
    }
    let (digits, exponent) = shortest(f64::from(v.abs()));
    // `(-` and `)` are written either way and kept only for a negative: the
    // sign of an activation is a coin toss, and a store is cheaper than a
    // mispredicted branch.
    let wrap = usize::from(negative);
    buf[..2].copy_from_slice(b"(-");
    let end = 2 * wrap + write_positional(&mut buf[2 * wrap..], digits, exponent);
    buf[end] = b')';
    end + wrap
}

/// The shortest `digits · 10^exponent` that rounds to `d`, nearest to `d`
/// when several are as short; `10^14 < digits < 10^17`, so a value with few
/// digits has them followed by zeros. `d` is a positive finite widened
/// `f32`, hence a normal `f64` even when the `f32` was subnormal.
fn shortest(d: f64) -> (u64, i32) {
    let bits = d.to_bits();
    let fraction = bits & ((1 << 52) - 1);
    let c = (1 << 52) | fraction;
    let q = (bits >> 52) as i32 - 1075;

    // `d`'s neighbours are half a unit away, a quarter below a power of two.
    let lower_is_closer = fraction == 0;
    let cb = c << 2;
    let cbl = cb - 2 + u64::from(lower_is_closer);
    let cbr = cb + 2;

    // k = ⌊log₁₀ 2^q⌋ (of ¾ · 2^q when the lower neighbour is closer) and
    // ⌊log₂ 10^-k⌋, in fixed point; `c · 2^q · 10^-k` is 16 or 17 digits.
    let k = (q * 1_262_611 - if lower_is_closer { 524_031 } else { 0 }) >> 22;
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    let g = POW10[(-k - MIN_POW10) as usize];
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);

    // An even significand owns its interval's end points (round-half-even
    // on the way back in).
    let open = c & 1;
    let lower = vbl + open;
    let upper = vbr - open;

    // Both candidates at each length are worked out and one is selected,
    // without a jump: which one wins is noise to a branch predictor.
    let s = vb >> 2;
    // One digit fewer, when exactly one such decimal is inside.
    let coarse = s / 10;
    let coarse_low_inside = lower <= 40 * coarse;
    let coarse_high_inside = 40 * coarse + 40 <= upper;
    // Else the one of `s`, `s + 1` that is inside, or the nearer when both
    // are (or neither). A widened `f32` has a short binary expansion, so `vb`
    // does land exactly half way; `Display` rounds that half up, not to even
    // (0xc47c9c0d = -1010.43829345703125 prints …4570313).
    let low_inside = lower <= 4 * s;
    let high_inside = 4 * s + 4 <= upper;
    let up = if low_inside != high_inside {
        high_inside
    } else {
        vb >= 4 * s + 2
    };
    let shorter = coarse_low_inside != coarse_high_inside;
    let digits = if shorter {
        coarse + u64::from(coarse_high_inside)
    } else {
        s + u64::from(up)
    };
    (digits, k + i32::from(shorter))
}

/// `⌊cp · g / 2^128⌋` with the lowest bit set when the dropped part is not
/// zero: enough to compare against multiples of four exactly.
fn round_to_odd((high, low): (u64, u64), cp: u64) -> u64 {
    let x = u128::from(cp) * u128::from(low);
    let y = u128::from(cp) * u128::from(high) + (x >> 64);
    ((y >> 64) as u64) | u64::from(y as u64 > 1)
}

/// Writes `digits · 10^exponent` (`10^14 <= digits < 10^17`) positionally at
/// the start of `buf`, returning the length: `0.00ddd`, `dd.ddd` or
/// `ddd000`. Digits are written seventeen at a time and the zeros cut
/// afterwards, so bytes past that length are overwritten too.
fn write_positional(buf: &mut [u8], digits: u64, exponent: i32) -> usize {
    // Padded to seventeen digits, the first not zero, so that every digit
    // has a fixed place; the padding is not counted below.
    let pad = usize::from(digits < TEN_TO_16) + usize::from(digits < TEN_TO_16 / 10);
    let digits = digits * [1, 10, 100][pad];
    let point = exponent - pad as i32 + 17;

    // The integer part is written one byte late, and moves down below to
    // make room for the point.
    let start = match point {
        ..=0 => {
            let start = 2 + point.unsigned_abs() as usize;
            buf[..2].copy_from_slice(b"0.");
            buf[2..start].fill(b'0');
            start
        }
        1..=17 => 1,
        18.. => 0,
    };
    write_17_digits(&mut buf[start..start + 17], digits);
    let mut end = start + 17 - pad;
    while buf[end - 1] == b'0' {
        end -= 1;
    }
    match point {
        ..=0 => end,
        1..=17 => {
            let point = point as usize;
            buf.copy_within(1..=point, 0);
            if end > point + 1 {
                buf[point] = b'.';
                end
            } else {
                point
            }
        }
        18.. => {
            let point = point as usize;
            buf[17..point].fill(b'0');
            point
        }
    }
}

/// Fills `buf` with the 17 decimal digits of `v`, leading zeros included.
/// The pieces are divided out as a tree, not a chain, so the multiplications
/// overlap.
fn write_17_digits(buf: &mut [u8], v: u64) {
    let buf = &mut buf[..17];
    let (high, low) = ((v / 100_000_000) as u32, (v % 100_000_000) as u32);
    buf[0] = b'0' + (high / 100_000_000) as u8;
    write_8_digits(&mut buf[1..9], high % 100_000_000);
    write_8_digits(&mut buf[9..], low);
}

/// Fills `buf` with the 8 decimal digits of `v`, two at a time.
fn write_8_digits(buf: &mut [u8], v: u32) {
    let (high, low) = (v / 10_000, v % 10_000);
    buf[..2].copy_from_slice(&DIGIT_PAIRS[(high / 100) as usize]);
    buf[2..4].copy_from_slice(&DIGIT_PAIRS[(high % 100) as usize]);
    buf[4..6].copy_from_slice(&DIGIT_PAIRS[(low / 100) as usize]);
    buf[6..8].copy_from_slice(&DIGIT_PAIRS[(low % 100) as usize]);
}

/// What the snapshot printer spends on a feature value, comma included:
/// 19.4 bytes on average over the paper's `1st_pool` and `3rd_pool` maps.
pub(crate) const BYTES_PER_VALUE: usize = 19;

/// Reads the elements of a list from the first, at `i`, to the `]` that
/// closes it: the values, how deep the parser would have recursed for the
/// deepest (at least the one level of the constructor's argument), and the
/// index of the `]`. `None` when the list is not in the printer's alphabet
/// — an element [`scan_f32_element`] declines, a byte after one that is
/// neither `,` nor `]`, or no `]` — so that the general lexer reads it.
///
/// A list whose text holds at least two [`MIN_PART`]s of values is read in
/// [`parts`]; any other is read here, on the calling thread, into a vector
/// reserved from the text that remains.
pub(crate) fn scan_f32_elements(src: &str, i: usize) -> Option<(Vec<f32>, u8, usize)> {
    if parts((src.len() - i) / BYTES_PER_VALUE) < 2 {
        return scan_serial(src, i);
    }
    scan_in_parts(src, i, parts)
}

/// [`scan_f32_elements`] on the calling thread.
fn scan_serial(src: &str, mut i: usize) -> Option<(Vec<f32>, u8, usize)> {
    let bytes = src.as_bytes();
    // The printer spends ~19 bytes a value, and the list runs to at most
    // the end of the text: reserving that up front spares a feature map
    // its ~15 doublings.
    let mut data = Vec::with_capacity((bytes.len() - i) / BYTES_PER_VALUE);
    // `new Float32Array(` parses its argument one `expression()` deep.
    let mut nesting = 1;
    if bytes.get(i) != Some(&b']') {
        loop {
            let (value, depth, end) = scan_f32_element(src, i)?;
            data.push(value);
            nesting = nesting.max(depth);
            match bytes.get(end)? {
                b',' => i = end + 1,
                b']' => {
                    i = end;
                    break;
                }
                _ => return None,
            }
        }
    }
    // A short list early in a long text must not keep the text's share.
    if data.capacity() / 2 > data.len() {
        data.shrink_to_fit();
    }
    Some((data, nesting, i))
}

/// [`scan_f32_elements`] with the list, up to its [`list_end`], cut into
/// at most `k` parts, `k` given the values its text holds at 19 bytes a
/// value. Each part starts after a comma near one `k`-th of the text, and
/// none is empty. The caller reads the first part, a scoped thread each
/// later one into a vector reserved here, and the values are joined in
/// order into a vector sized to exactly their number; what a part left
/// unread (its vector was full, or no thread took it) is read after the
/// join. Serial when `k < 2` or the list does not end with a `]`.
///
/// The text between the elements holds no `,` and no `]`, so the elements
/// of the serial reader are exactly the comma-separated pieces: it takes
/// the list when every part does, with the same values and the deepest
/// part's nesting, and declines it when any part does.
fn scan_in_parts(
    src: &str,
    i: usize,
    k: impl FnOnce(usize) -> usize,
) -> Option<(Vec<f32>, u8, usize)> {
    let bytes = src.as_bytes();
    let end = list_end(bytes, i);
    let k = k((end - i) / BYTES_PER_VALUE);
    if k < 2 || end == i || bytes.get(end) != Some(&b']') {
        return scan_serial(src, i);
    }
    // The comma that ends each part but the last.
    let mut cuts = Vec::with_capacity(k);
    let mut from = i;
    for j in 1..k {
        let comma = crate::html::find_set(&bytes[..end], i + (end - i) * j / k, b",");
        if comma > from && comma + 1 < end {
            cuts.push(comma);
            from = comma + 1;
        }
    }
    let ends = cuts.iter().skip(1).copied().chain([end]);
    let mut tails: Vec<Part> = cuts
        .iter()
        .zip(ends)
        .map(|(&comma, to)| Part {
            values: Vec::with_capacity((to - comma) / BYTES_PER_VALUE + 1),
            nesting: 1,
            reached: Some(comma + 1),
            to,
        })
        .collect();
    // The first part goes straight into the list's own vector, reserved
    // for the whole list: a vector of its own would be one more copy of
    // it alive at the join.
    let mut data = Vec::with_capacity((end - i) / BYTES_PER_VALUE + 1);
    let mut nesting = 1;
    std::thread::scope(|s| {
        for part in &mut tails {
            // A part no thread took is read after the join.
            let _ = std::thread::Builder::new().spawn_scoped(s, move || part.read(src));
        }
        let to = cuts.first().copied().unwrap_or(end);
        read_run(src, i, to, &mut data, &mut nesting, false)
    })?;
    data.reserve_exact(tails.iter().map(|part| part.values.len()).sum());
    for part in &tails {
        data.extend_from_slice(&part.values);
        nesting = nesting.max(part.nesting);
        let reached = part.reached?;
        if reached < part.to {
            read_run(src, reached, part.to, &mut data, &mut nesting, false)?;
        }
    }
    data.shrink_to_fit();
    Some((data, nesting, end))
}

/// One contiguous run of a list's elements, read by one thread.
struct Part {
    /// The elements read so far.
    values: Vec<f32>,
    /// The deepest of them, as [`scan_f32_elements`] counts.
    nesting: u8,
    /// Where the next unread element starts (`to` once all are read), or
    /// `None` where the list declines.
    reached: Option<usize>,
    /// The `,` or `]` after the run's last element.
    to: usize,
}

impl Part {
    /// Reads on from `reached` while `values` has room. The reading goes
    /// into locals, stored back once: the parts lie side by side, and a
    /// store per value into a cache line another core writes too made a
    /// split read slower than a serial one.
    fn read(&mut self, src: &str) {
        let (mut values, mut nesting) = (std::mem::take(&mut self.values), self.nesting);
        if let Some(from) = self.reached {
            self.reached = read_run(src, from, self.to, &mut values, &mut nesting, true);
        }
        (self.values, self.nesting) = (values, nesting);
    }
}

/// Reads the elements from `i` up to the `,` or `]` at `to` into `values`,
/// keeping the deepest nesting; with `within`, it stops rather than
/// outgrow `values`' capacity. Returns where it stopped — `to` once the
/// last element ends there, else the start of the next — or `None` where
/// the list declines.
fn read_run(
    src: &str,
    mut i: usize,
    to: usize,
    values: &mut Vec<f32>,
    nesting: &mut u8,
    within: bool,
) -> Option<usize> {
    let bytes = src.as_bytes();
    while !(within && values.len() == values.capacity()) {
        let (value, depth, end) = scan_f32_element(src, i)?;
        values.push(value);
        *nesting = (*nesting).max(depth);
        if end == to {
            return Some(to);
        }
        if end > to || bytes.get(end) != Some(&b',') {
            return None;
        }
        i = end + 1;
    }
    Some(i)
}

/// Index of the first byte at or after `i` that is outside the list
/// alphabet: the digits, `.`, `-`, `(`, `)`, `/` and `,`. A list the reader
/// takes ends there, at its `]`. `new Float32Array([` is outside it, so no
/// two lists' spans overlap, and the scans of one `lex` add up to at most
/// its text once, however many lists decline.
///
/// Eight bytes a step: a byte is inside when it is in `0x28..=0x39` and is
/// not `*` or `+`. A carry out of an outside byte may flag bytes above it,
/// never one below, so the lowest flag is exact.
fn list_end(bytes: &[u8], i: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let rest = bytes.get(i..).unwrap_or_default();
    let (words, tail) = rest.as_chunks::<8>();
    for (n, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word);
        // High bit set from `(`, then from the byte after `9`, up.
        let from_paren = x.wrapping_add(LO * (0x80 - 0x28));
        let past_nine = x.wrapping_add(LO * (0x80 - 0x3a));
        // `*` and `+` are the two bytes that read as `+` with the low bit set.
        let y = (x | LO) ^ (LO * u64::from(b'+'));
        let star_or_plus = y.wrapping_sub(LO) & !y;
        let outside = (!from_paren | past_nine | star_or_plus) & HI;
        if outside != 0 {
            return i + n * 8 + (outside.trailing_zeros() / 8) as usize;
        }
    }
    let tail_start = bytes.len() - tail.len();
    tail.iter()
        .position(|&b| !in_list_alphabet(b))
        .map_or(bytes.len(), |p| tail_start + p)
}

/// Whether `b` may stand between a list's `[` and `]`.
fn in_list_alphabet(b: u8) -> bool {
    matches!(b, b'(' | b')' | b','..=b'9')
}

/// One element of a scanned list at `i`, in the alphabet
/// [`render_f32_literal`] writes: its value, how many levels deep the
/// general parser recurses for this spelling (counted from the `new`), and
/// the index after it. `None` when the element is outside the alphabet or
/// its decimal is not already an `f32`.
pub(crate) fn scan_f32_element(src: &str, i: usize) -> Option<(f32, u8, usize)> {
    element(src, i, read_magnitude)
}

/// [`scan_f32_element`] with the digits read by `magnitude`, so that the
/// tests can run the same framing over the `str::parse` path.
fn element(
    src: &str,
    i: usize,
    magnitude: impl Fn(&str, usize) -> Option<(f32, usize)>,
) -> Option<(f32, u8, usize)> {
    let bytes = src.as_bytes();
    let rest = &bytes[i..];
    let wrapped = rest.first() == Some(&b'(');
    // Only a quotient opens with `(` and no `-`, or with `(-1/`.
    if wrapped && (rest.get(1) != Some(&b'-') || rest.get(2..4) == Some(b"1/")) {
        return quotient(rest, i);
    }
    // `x`, `-x` (how `-0` prints) or `(-x)`.
    let negative = wrapped || rest.first() == Some(&b'-');
    let start = i + usize::from(wrapped) + usize::from(negative);
    // A leading digit is required, as in the general lexer (`f64::from_str`
    // alone would also take `.5`).
    if !bytes.get(start).is_some_and(u8::is_ascii_digit) {
        return None;
    }
    let (magnitude, mut end) = magnitude(src, start)?;
    if wrapped {
        if bytes.get(end) != Some(&b')') {
            return None;
        }
        end += 1;
    }
    Some((
        if negative { -magnitude } else { magnitude },
        2 + u8::from(negative) + u8::from(wrapped),
        end,
    ))
}

/// `(0/0)`, `(1/0)` or `(-1/0)` at the start of `rest` (which is at `i`).
fn quotient(rest: &[u8], i: usize) -> Option<(f32, u8, usize)> {
    for (text, numerator, depth) in [("(0/0)", 0.0, 3), ("(1/0)", 1.0, 3), ("(-1/0)", -1.0, 4)] {
        if rest.starts_with(text.as_bytes()) {
            // Divided at run time, like the interpreter's `/`: the sign and
            // payload of `0/0` are the hardware's choice, and a constant the
            // compiler folds may choose differently.
            let quotient = std::hint::black_box(numerator) / std::hint::black_box(0.0_f64);
            return Some((quotient as f32, depth, i + text.len()));
        }
    }
    None
}

/// The `digits[.digits]` at `start` (which is a digit) as an `f32`, and the
/// index after it; `None` when the decimal is not already an `f32`.
///
/// The general path parses an `f64` and the constructor rounds it; a
/// function body is re-printed from its AST, so only a decimal that already
/// is an `f32` may become one here (`0.1` must print back as `0.1`). That
/// is decided with integers when they can hold the decimal, else by
/// [`parse_magnitude`].
fn read_magnitude(src: &str, start: usize) -> Option<(f32, usize)> {
    match read_exact(src.as_bytes(), start) {
        Read::F32(value, end) => Some((value, end)),
        Read::NotF32 => None,
        Read::Unsure => parse_magnitude(src, start),
    }
}

/// The `str::parse` path: what the general lexer reads, kept for the
/// decimals the integers cannot hold and as the tests' oracle.
fn parse_magnitude(src: &str, start: usize) -> Option<(f32, usize)> {
    let end = crate::lexer::decimal_end(src.as_bytes(), start);
    let magnitude: f64 = src[start..end].parse().ok()?;
    let value = magnitude as f32;
    (magnitude.is_finite() && f64::from(value) == magnitude).then_some((value, end))
}

/// What [`read_exact`] concluded.
enum Read {
    /// The decimal reads as exactly this `f32`'s `f64`, ending here.
    F32(f32, usize),
    /// It reads as an `f64` that is no `f32`.
    NotF32,
    /// The integers cannot hold it: more than [`MAX_DIGITS`] significant
    /// digits, more than [`MAX_SCALE`] fraction digits, a zero, subnormal
    /// or infinite candidate, or an overflow on the way.
    Unsure,
}

/// Significant digits a `u64` always holds.
const MAX_DIGITS: usize = 19;

/// The most fraction digits [`read_exact`] takes. `5^31 < 2^72`, so the
/// interval ends times `5^k` stay below `2^127`.
const MAX_SCALE: usize = 31;

/// `10^-k` as the nearest `f64`, for `k` in `0..=MAX_SCALE`.
#[rustfmt::skip]
const NEG_POW10: [f64; MAX_SCALE + 1] = [
    1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11,
    1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21,
    1e-22, 1e-23, 1e-24, 1e-25, 1e-26, 1e-27, 1e-28, 1e-29, 1e-30, 1e-31,
];

/// `5^k` for `k` in `0..=MAX_SCALE`.
const POW5: [u128; MAX_SCALE + 1] = {
    let mut table = [1u128; MAX_SCALE + 1];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 5;
        k += 1;
    }
    table
};

/// `10^n` for the `n` digits one eight-byte step can read.
const POW10_STEP: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// Reads `digits[.digits]` at `start` as `w · 10^-k` with integers and
/// decides exactly whether it is an `f32`:
///
/// 1. the significant digits go into `w`, eight bytes a step;
/// 2. the candidate `c` is `w · 10^-k` rounded through `f64` to `f32`,
///    which is within a few `f64` units of the decimal, so it is the one
///    `f32` the decimal can read as;
/// 3. the decimal reads as `f64::from(c)` exactly when it lies in that
///    `f64`'s closed rounding interval: half an `f64` unit on either side,
///    but only a quarter below a power of two, where the next `f64` down is
///    half as far (the printer's `lower_is_closer`). Both ends belong to
///    `c`, because its `f64` significand is even and `str::parse` rounds
///    ties to even. The test is `u128` arithmetic in quarter units.
fn read_exact(bytes: &[u8], start: usize) -> Read {
    let Some((w, scale, i)) = printed_digits(bytes, start).or_else(|| any_digits(bytes, start))
    else {
        return Read::Unsure;
    };
    if w == 0 || scale > MAX_SCALE {
        return Read::Unsure;
    }

    let candidate = (w as f64 * NEG_POW10[scale]) as f32;
    if !candidate.is_normal() {
        return Read::Unsure;
    }
    // `candidate = m · 2^q`; its `f64` is `m · 2^31` quarters of an `f64`
    // unit, `2^(q - 31)`.
    let bits = candidate.to_bits();
    let fraction_bits = bits & 0x7f_ffff;
    let quarters = u64::from(fraction_bits | 0x80_0000) << 31;
    let q = (bits >> 23) as i32 - 150;
    let below = 1 + u64::from(fraction_bits != 0);
    // `w · 10^-k` against `(quarters + t) · 2^(q - 31)` for `t` in
    // `[-below, 2]`, all times `5^k · 2^(31 - q)`: `w · 2^(31 - q - k)`
    // against `(quarters + t) · 5^k`, so the distance from the middle, below
    // `2^127` on both sides, against `[-below, 2] · 5^k`.
    let p = POW5[scale];
    let middle = u128::from(quarters) * p;
    let w = u128::from(w);
    let shift = 31 - q - scale as i32;
    let (distance, unit) = if shift >= 0 {
        let shift = shift.unsigned_abs();
        if shift >= w.leading_zeros() {
            return Read::Unsure;
        }
        ((w << shift).wrapping_sub(middle), p)
    } else {
        let shift = shift.unsigned_abs();
        if shift >= middle.leading_zeros() {
            return Read::Unsure;
        }
        (w.wrapping_sub(middle << shift), p << shift)
    };
    let (distance, unit) = (distance as i128, unit as i128);
    let inside = -(i128::from(below) * unit) <= distance && distance <= 2 * unit;
    if inside {
        Read::F32(candidate, i)
    } else {
        Read::NotF32
    }
}

/// `digits[.digits]` at `start` (a digit) as `(w, k, end)` for
/// `w · 10^-k`, in the printer's usual shape: at most seven integer digits, then possibly a
/// point and at most seventeen fraction digits, at most nineteen digits in
/// all (`3.4567840099334717`, `0.34567840099334717`), with the words read
/// in bounds. The fraction is two words at fixed places and one byte, so
/// neither its digit runs nor their lengths wait on each other. `None` for
/// any other decimal.
///
/// [`any_digits`] reads these shapes too, to the same `(w, k, end)`, but
/// each of its words starts where the last one's run ended: alone it reads
/// the agenet `3rd_pool` map at ~53 ns a value on a 2.1 GHz Xeon, this path
/// at ~28.
fn printed_digits(bytes: &[u8], start: usize) -> Option<(u64, usize, usize)> {
    // One integer digit is the usual case; a longer integer part takes a
    // word.
    let (int_len, int_value) = if bytes.get(start + 1) == Some(&b'.') {
        (1, u64::from(bytes[start] - b'0'))
    } else {
        let (len, value) = eight_digits(word_at(bytes, start)?);
        if len == 8 {
            return None;
        }
        (len, value)
    };
    let point = start + int_len;
    if bytes.get(point) != Some(&b'.') {
        return Some((int_value, 0, point));
    }
    let (head_len, head) = eight_digits(word_at(bytes, point + 1)?);
    let (tail_len, tail) = eight_digits(word_at(bytes, point + 9)?);
    // Each word counts only after a full one: `1.5,2` is one fraction digit.
    let (tail_len, tail) = if head_len == 8 {
        (tail_len, tail)
    } else {
        (0, 0)
    };
    // A seventeenth fraction digit, which the printer writes below one.
    let after = point + 1 + head_len + tail_len;
    let last = bytes.get(after).map_or(10, |b| b.wrapping_sub(b'0'));
    let extra = usize::from(tail_len == 8 && last < 10);
    let scale = head_len + tail_len + extra;
    if int_len + scale > MAX_DIGITS || bytes.get(after + extra).is_some_and(u8::is_ascii_digit) {
        return None;
    }
    let w = ((int_value * POW10_STEP[head_len] + head) * POW10_STEP[tail_len] + tail)
        * POW10_STEP[extra]
        + u64::from(last) * extra as u64;
    // `1.` is the integer `1` followed by a `.` that is not the number's.
    let end = if scale == 0 { point } else { after + extra };
    Some((w, scale, end))
}

/// The eight bytes at `i`, first byte lowest, when they are in bounds.
fn word_at(bytes: &[u8], i: usize) -> Option<u64> {
    let eight = bytes.get(i..i + 8)?;
    eight.try_into().ok().map(u64::from_le_bytes)
}

/// `digits[.digits]` at `start` as `(w, k, end)` for `w · 10^-k`, eight
/// bytes a step, skipping the zeros before the first significant digit;
/// `None` past [`MAX_DIGITS`] significant digits.
fn any_digits(bytes: &[u8], start: usize) -> Option<(u64, usize, usize)> {
    let (mut w, mut digits) = (0, 0);
    let mut i = digit_run(bytes, zeros_end(bytes, start), &mut w, &mut digits)?;
    let mut scale = 0;
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        let fraction = i + 1;
        // The zeros after the point of a number below one are not
        // significant either.
        let first = if w == 0 {
            zeros_end(bytes, fraction)
        } else {
            fraction
        };
        i = digit_run(bytes, first, &mut w, &mut digits)?;
        scale = i - fraction;
    }
    Some((w, scale, i))
}

/// Index of the first byte at or after `i` that is not `0`.
fn zeros_end(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i) == Some(&b'0') {
        i += 1;
    }
    i
}

/// Appends the run of digits at `i` to `w`, eight bytes a step, counting
/// them in `digits`; returns the index after the run, or `None` once the
/// count passes [`MAX_DIGITS`].
fn digit_run(bytes: &[u8], mut i: usize, w: &mut u64, digits: &mut usize) -> Option<usize> {
    loop {
        let word = match bytes.get(i..i + 8) {
            Some(eight) => eight.try_into().map_or(0, u64::from_le_bytes),
            // Near the end the word is padded with zero bytes, which are
            // not digits.
            None => {
                let mut word = [0u8; 8];
                let tail = bytes.get(i..).unwrap_or_default();
                word[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(word)
            }
        };
        let (run, value) = eight_digits(word);
        *digits += run;
        if *digits > MAX_DIGITS {
            return None;
        }
        // `w < 10^(digits - run)`, so this stays below `10^19`.
        *w = *w * POW10_STEP[run] + value;
        i += run;
        if run < 8 {
            return Some(i);
        }
    }
}

/// How many of the eight bytes of `word` (first byte lowest) are ASCII
/// digits before the first that is not, and the number they spell.
fn eight_digits(word: u64) -> (usize, u64) {
    const HIGH_NIBBLES: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    // A byte is a digit when its high nibble is 3 and stays 3 after adding
    // 6. A byte past the first non-digit may be mangled by a carry; only
    // the first one is read.
    let nibbles =
        (word & HIGH_NIBBLES) | ((word.wrapping_add(0x0606_0606_0606_0606) & HIGH_NIBBLES) >> 4);
    let run = ((nibbles ^ 0x3333_3333_3333_3333).trailing_zeros() / 8) as usize;
    if run == 0 {
        return (0, 0);
    }
    // Digit values, the run moved to the top bytes so that the bytes below
    // it read as leading zeros. A borrow out of a non-digit only moves up,
    // and the shift drops everything from the first non-digit on.
    let v = word.wrapping_sub(0x3030_3030_3030_3030) << (64 - 8 * run);
    // Pairs, then fours, then the eight (first byte most significant).
    let v = v.wrapping_mul(10).wrapping_add(v >> 8);
    let v = ((v & 0x0000_00ff_0000_00ff).wrapping_mul(100 + (1_000_000 << 32)))
        .wrapping_add(((v >> 16) & 0x0000_00ff_0000_00ff).wrapping_mul(1 + (10_000 << 32)))
        >> 32;
    (run, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, Token};
    use snapedge_rng::Rng;
    use std::fmt::Write as _;

    /// The loop this module replaced, kept as the oracle.
    fn display_literal(data: &[f32], out: &mut String) {
        out.push_str("new Float32Array([");
        for (i, &v) in data.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let d = v as f64;
            if d.is_nan() {
                out.push_str("(0/0)");
            } else if d.is_infinite() {
                out.push_str(if d > 0.0 { "(1/0)" } else { "(-1/0)" });
            } else if d < 0.0 {
                let _ = write!(out, "(-{})", -d);
            } else {
                let _ = write!(out, "{d}");
            }
        }
        out.push_str("])");
    }

    fn rendered(data: &[f32]) -> String {
        let mut text = String::new();
        render_f32_literal(data, &mut text);
        text
    }

    /// One element, without the wrapper.
    fn element(v: f32) -> String {
        let text = rendered(&[v]);
        text["new Float32Array([".len()..text.len() - "])".len()].to_string()
    }

    /// Bytes ≡ `Display`, element by element; returns the text.
    fn assert_display(data: &[f32]) -> String {
        let text = rendered(data);
        let mut expected = String::new();
        display_literal(data, &mut expected);
        if text != expected {
            let (ours, theirs) = (text.split(','), expected.split(','));
            for ((v, a), b) in data.iter().zip(ours).zip(theirs) {
                assert_eq!(a, b, "bits {:#010x}", v.to_bits());
            }
            panic!("same elements, different lists:\n{text}\n{expected}");
        }
        text
    }

    /// The list scanner takes the text and reads every bit back.
    fn assert_scanned(data: &[f32], text: &str) {
        let tokens = lex(text).unwrap();
        let [_, _, Token::F32List { data: read, .. }, Token::Eof] =
            tokens.iter().map(|t| &t.token).collect::<Vec<_>>()[..]
        else {
            panic!("the scanner declined {text}");
        };
        assert_eq!(read.len(), data.len());
        for (v, r) in data.iter().zip(read) {
            assert!(
                v.to_bits() == r.to_bits() || (v.is_nan() && r.is_nan()),
                "bits {:#010x} read back as {:#010x}",
                v.to_bits(),
                r.to_bits()
            );
        }
    }

    #[test]
    fn sampled_patterns_print_as_display_and_scan_back() {
        // Both signs of every exponent's edge mantissas (exponent 255 is
        // the infinities and NaNs), then a million uniform bit patterns.
        let mut edges = Vec::new();
        for exponent in 0..=255u32 {
            for mantissa in [0, 1, 2, 0x40_0000, 0x7f_fffe, 0x7f_ffff] {
                for sign in [0, 1 << 31] {
                    edges.push(f32::from_bits(sign | exponent << 23 | mantissa));
                }
            }
        }
        assert_scanned(&edges, &assert_display(&edges));

        let mut rng = Rng::seed_from_u64(0xf32_7e87);
        let mut batch = vec![0f32; 4096];
        for _ in 0..256 {
            batch.fill_with(|| f32::from_bits(rng.next_u32()));
            assert_scanned(&batch, &assert_display(&batch));
        }
    }

    #[test]
    fn named_cases() {
        // The exact tie: `Display` rounds it up, ties-to-even gives …312.
        assert_eq!(
            element(f32::from_bits(0xc47c_9c0d)),
            "(-1010.4382934570313)"
        );
        assert_eq!(element(0.0), "0");
        assert_eq!(element(-0.0), "-0");
        assert_eq!(element(f32::MAX), "340282346638528860000000000000000000000");
        assert_eq!(
            element(f32::MIN_POSITIVE),
            "0.000000000000000000000000000000000000011754943508222875"
        );
        let smallest = format!("0.{}1401298464324817", "0".repeat(44));
        assert_eq!(element(1e-45), smallest);
        assert_eq!(element(-1e-45), format!("(-{smallest})"));
        assert_eq!(smallest.len() + ",(-)".len(), ELEMENT_ROOM);
        assert_eq!(
            element(-1e-40),
            "(-0.0000000000000000000000000000000000000000999994610111476)"
        );
        assert_eq!(element(0.1), "0.10000000149011612");
        assert_eq!(element(16_777_217.0), "16777216");
        assert_eq!(element(1.0), "1");
        assert_eq!(element(1e10), "10000000000");
        assert_eq!(element(12.5), "12.5");
        assert_eq!(element(f32::from_bits(0x7fc1_2345)), "(0/0)");
        assert_eq!(element(f32::from_bits(0xff80_0001)), "(0/0)");
        assert_eq!(element(f32::INFINITY), "(1/0)");
        assert_eq!(element(f32::NEG_INFINITY), "(-1/0)");
        assert_eq!(rendered(&[]), "new Float32Array([])");
    }

    #[test]
    fn a_list_longer_than_the_scratch_keeps_every_chunk() {
        // The longest elements, so chunk boundaries fall everywhere.
        let data: Vec<f32> = (0..500u32).map(|i| -f32::from_bits(1 + i % 7)).collect();
        let text = assert_display(&data);
        assert!(text.len() > 16 * CHUNK);
        assert_scanned(&data, &text);
    }

    /// Schoolbook arithmetic on little-endian 32-bit limbs, for the table
    /// test: `n *= by`.
    fn times(n: &mut Vec<u32>, by: u32) {
        let mut carry = 0u64;
        for limb in n.iter_mut() {
            carry += u64::from(*limb) * u64::from(by);
            *limb = carry as u32;
            carry >>= 32;
        }
        if carry != 0 {
            n.push(carry as u32);
        }
    }

    fn bit_len(n: &[u32]) -> usize {
        n.len() * 32 - n.last().map_or(0, |top| top.leading_zeros() as usize)
    }

    fn bit(n: &[u32], i: usize) -> bool {
        n.get(i / 32).is_some_and(|limb| limb >> (i % 32) & 1 == 1)
    }

    #[test]
    fn the_table_is_the_ceiling_of_each_scaled_power() {
        assert_eq!(POW10.len() as i32, 61 - MIN_POW10 + 1);
        for (entry, k) in POW10.iter().zip(MIN_POW10..) {
            let mut power = vec![1u32];
            for _ in 0..k.abs() {
                times(&mut power, 10);
            }
            let bits = bit_len(&power);
            let (g, floor_log2) = if k >= 0 {
                // The top 128 bits of 10^k, rounded up if any bit is dropped.
                let mut g = 0u128;
                for i in (0..bits).rev().take(128) {
                    g = g << 1 | u128::from(bit(&power, i));
                }
                g <<= 128usize.saturating_sub(bits);
                let dropped = (0..bits.saturating_sub(128)).any(|i| bit(&power, i));
                (g + u128::from(dropped), bits as i32 - 1)
            } else {
                // 2^(127 + bits) / 10^-k by long division, a bit at a time:
                // 10^22 < 2^74, so the remainder fits a u128.
                let divisor = power
                    .iter()
                    .rev()
                    .fold(0u128, |d, &limb| d << 32 | u128::from(limb));
                let (mut g, mut rest) = (0u128, 1u128);
                for _ in 0..127 + bits {
                    rest <<= 1;
                    g <<= 1;
                    if rest >= divisor {
                        rest -= divisor;
                        g |= 1;
                    }
                }
                (g + u128::from(rest != 0), -(bits as i32))
            };
            assert_eq!(
                (*entry, (k * 1_741_647) >> 19),
                (((g >> 64) as u64, g as u64), floor_log2),
                "k = {k}"
            );
        }
    }

    /// Every non-negative finite pattern against `Display` — the proof that
    /// the table, the logarithms and the tie rule are right on this module's
    /// whole domain (negative values print the same digits). Minutes of
    /// work: `PARTS=n PART=i` checks one of `n` interleaved samples, and
    /// all `n` together are every pattern.
    #[test]
    #[ignore = "2^31 patterns; run in release, PARTS/PART split the work"]
    fn every_finite_pattern_prints_as_display() {
        let var =
            |name: &str, default: u64| std::env::var(name).map_or(default, |v| v.parse().unwrap());
        let (parts, part) = (var("PARTS", 1), var("PART", 0));
        assert!(part < parts);
        let mut batch = Vec::with_capacity(4096);
        let (mut text, mut expected) = (String::new(), String::new());
        let mut checked = 0u64;
        for i in (part..1 << 31).step_by(parts as usize) {
            // An odd multiplier permutes the 31-bit patterns, so a part is
            // a spread of exponents and mantissas, not one low-bits class.
            let bits = (i as u32).wrapping_mul(0x9e37_79b1) & 0x7fff_ffff;
            if bits < 0x7f80_0000 {
                batch.push(f32::from_bits(bits));
            }
            if batch.len() == batch.capacity() || i + parts >= 1 << 31 {
                text.clear();
                expected.clear();
                render_f32_literal(&batch, &mut text);
                display_literal(&batch, &mut expected);
                if text != expected {
                    assert_display(&batch);
                }
                checked += batch.len() as u64;
                batch.clear();
            }
        }
        println!("{checked} patterns checked, 0 mismatches (part {part} of {parts})");
    }

    /// The element at `i` read through the `str::parse` path.
    fn oracle(src: &str, i: usize) -> Option<(f32, u8, usize)> {
        super::element(src, i, parse_magnitude)
    }

    /// An element's reading in comparable form: value bits, depth, end.
    fn bits(read: Option<(f32, u8, usize)>) -> Option<(u32, u8, usize)> {
        read.map(|(v, depth, end)| (v.to_bits(), depth, end))
    }

    /// Where [`printed_digits`] takes the decimal at `start`, it reads it
    /// as [`any_digits`] does.
    fn assert_digit_readers_agree(bytes: &[u8], start: usize) {
        if let Some(read) = printed_digits(bytes, start) {
            let text = String::from_utf8_lossy;
            assert_eq!(
                Some(read),
                any_digits(bytes, start),
                "{}",
                text(&bytes[start..read.2])
            );
        }
    }

    /// Walks the printed list `text` element by element: the reader and the
    /// `str::parse` path agree on every value, depth and end, and the value
    /// is the one printed. Returns how many elements the integers decided.
    fn assert_reads_as_parse(data: &[f32], text: &str) -> usize {
        let mut i = "new Float32Array([".len();
        let mut decided = 0;
        for (n, &v) in data.iter().enumerate() {
            let read = bits(scan_f32_element(text, i));
            assert_eq!(read, bits(oracle(text, i)), "element {n} at {i}");
            let Some((value, _, end)) = read else {
                panic!("bits {:#010x} declined", v.to_bits());
            };
            assert!(
                value == v.to_bits() || v.is_nan(),
                "bits {:#010x}",
                v.to_bits()
            );
            let start = i + usize::from(text.as_bytes()[i] == b'(');
            assert_digit_readers_agree(text.as_bytes(), start);
            decided += usize::from(!matches!(read_exact(text.as_bytes(), start), Read::Unsure));
            i = end + 1;
        }
        assert_eq!(&text[i - 1..], "])");
        decided
    }

    #[test]
    fn sampled_patterns_read_back_as_parse_reads_them() {
        let mut rng = Rng::seed_from_u64(0xf32_4ead);
        let mut batch = vec![0f32; 4096];
        let mut decided = 0;
        for _ in 0..64 {
            batch.fill_with(|| f32::from_bits(rng.next_u32()));
            decided += assert_reads_as_parse(&batch, &rendered(&batch));
        }
        // Uniform patterns are mostly tiny or huge; a feature map's values
        // are not, and every one of them is decided by the integers.
        assert!(decided > 64 * 4096 / 8, "{decided}");
        let map: Vec<f32> = (0..4096)
            .map(|_| rng.gen_range_f32(0.0, 40.0).max(1e-3))
            .collect();
        assert_eq!(assert_reads_as_parse(&map, &rendered(&map)), map.len());
    }

    /// Every non-negative finite pattern's printed text reads back through
    /// the integers exactly as through `str::parse`: value bits, depth and
    /// end. (A negative value prints the same digits inside `(-…)`; the
    /// named cases cover the wrapper.) `PARTS`/`PART` split the work like
    /// the printer's test.
    #[test]
    #[ignore = "2^31 patterns; run in release, PARTS/PART split the work"]
    fn every_finite_pattern_reads_back() {
        let var =
            |name: &str, default: u64| std::env::var(name).map_or(default, |v| v.parse().unwrap());
        let (parts, part) = (var("PARTS", 1), var("PART", 0));
        assert!(part < parts);
        let mut batch = Vec::with_capacity(4096);
        let mut text = String::new();
        let (mut checked, mut decided) = (0u64, 0u64);
        for i in (part..1 << 31).step_by(parts as usize) {
            let bits = (i as u32).wrapping_mul(0x9e37_79b1) & 0x7fff_ffff;
            if bits < 0x7f80_0000 {
                batch.push(f32::from_bits(bits));
            }
            if batch.len() == batch.capacity() || i + parts >= 1 << 31 {
                text.clear();
                render_f32_literal(&batch, &mut text);
                decided += assert_reads_as_parse(&batch, &text) as u64;
                checked += batch.len() as u64;
                batch.clear();
            }
        }
        println!(
            "{checked} patterns read back, {decided} decided by the integers, 0 mismatches \
             (part {part} of {parts})"
        );
    }

    #[test]
    fn named_reader_cases() {
        let read = |text: &str| scan_f32_element(text, 0).map(|(v, _, end)| (v, end));
        // 1 - 2^-53 is an f64 below the quarter-unit lower end of 1.0; a
        // symmetric half-unit test would take it as 1.0.
        assert_eq!(read("0.99999999999999992"), None);
        assert_eq!(read("0.99999999999999996"), Some((1.0, 19)));
        assert_eq!(read("1.00000000000000011"), Some((1.0, 19)));
        // 2^60 - 64 and 2^60 + 128: the ends of 2^60's interval, exact
        // f64 ties that round to 2^60's even significand.
        let two_60 = (1u64 << 60) as f32;
        assert_eq!(read("1152921504606846912"), Some((two_60, 19)));
        assert_eq!(read("1152921504606847104"), Some((two_60, 19)));
        assert_eq!(read("1152921504606846876"), None);
        // Each of those is decided by the integers, not by the fallback.
        for text in [
            "0.99999999999999992",
            "0.99999999999999996",
            "1.00000000000000011",
            "1152921504606846912",
            "1152921504606847104",
            "1152921504606846876",
            "12.5",
            "0.10000000149011612",
        ] {
            assert!(
                !matches!(read_exact(text.as_bytes(), 0), Read::Unsure),
                "{text}"
            );
        }
        assert!(matches!(read_exact(b"0.1", 0), Read::NotF32));
        // Zeros and the quotients, with and without what follows them.
        for text in [
            "0", "-0", "(-0)", "(0/0)", "(1/0)", "(-1/0)", "000", "0.000",
        ] {
            for tail in ["", ",", "])", ",1,2,3,4,5,6,7])"] {
                let src = format!("{text}{tail}");
                assert_eq!(
                    bits(scan_f32_element(&src, 0)),
                    bits(oracle(&src, 0)),
                    "{src}"
                );
                assert!(scan_f32_element(&src, 0).is_some(), "{src}");
            }
        }
        assert!(matches!(read_exact(b"0", 0), Read::Unsure));
        assert_eq!(scan_f32_element("(-0)", 0), Some((-0.0, 4, 4)));
        assert_eq!(
            scan_f32_element("-0", 0).map(|(v, ..)| v.to_bits()),
            Some(1 << 31)
        );
        assert_eq!(scan_f32_element("(-2.5)]", 0), Some((-2.5, 4, 6)));
        // Outside the alphabet.
        for text in ["", "(", "(-", "(-x)", "-(1)", "(2)", ".5", "(-2.5", "x"] {
            assert_eq!(scan_f32_element(text, 0), None, "{text}");
            assert_eq!(oracle(text, 0), None, "{text}");
        }
    }

    #[test]
    fn eight_digits_reads_every_run_length() {
        let mut rng = Rng::seed_from_u64(0x8d161);
        let stops = [
            b'.', b',', b']', b'/', b':', b'(', 0, 0x80, 0xc3, 0xf4, b'e', b' ',
        ];
        for _ in 0..20_000 {
            let mut word: [u8; 8] =
                std::array::from_fn(|_| b'0' + rng.gen_range_usize(0, 10) as u8);
            for byte in word.iter_mut() {
                if rng.gen_range_usize(0, 6) == 0 {
                    *byte = *rng.choose(&stops);
                }
            }
            let run = word.iter().take_while(|b| b.is_ascii_digit()).count();
            let value = word[..run]
                .iter()
                .fold(0, |v, &b| v * 10 + u64::from(b - b'0'));
            assert_eq!(
                eight_digits(u64::from_le_bytes(word)),
                (run, value),
                "{word:?}"
            );
        }
    }

    /// The exact positional decimal of `n · 2^e` as significant digits and
    /// a power of ten: `(digits, p)` is `digits · 10^p`.
    fn dyadic(n: u64, e: i32) -> (String, i32) {
        let mut big = vec![n as u32, (n >> 32) as u32];
        let (by, count) = if e >= 0 { (2, e) } else { (5, -e) };
        for _ in 0..count {
            times(&mut big, by);
        }
        // Repeated division by 10^9, lowest chunk first.
        let mut chunks = Vec::new();
        while big.iter().any(|&limb| limb != 0) {
            let mut rest = 0u64;
            for limb in big.iter_mut().rev() {
                let current = rest << 32 | u64::from(*limb);
                *limb = (current / 1_000_000_000) as u32;
                rest = current % 1_000_000_000;
            }
            chunks.push(rest);
        }
        let mut digits = chunks.pop().map_or_else(String::new, |top| top.to_string());
        for chunk in chunks.iter().rev() {
            digits += &format!("{chunk:09}");
        }
        let significant = digits.trim_end_matches('0').len();
        let power = e.min(0) + (digits.len() - significant) as i32;
        digits.truncate(significant);
        (digits, power)
    }

    /// `digits · 10^power` written positionally, with `lead` extra leading
    /// zeros and `trail` extra trailing ones.
    fn positional(digits: &str, power: i32, lead: usize, trail: usize) -> String {
        let zeros = |n: usize| "0".repeat(n);
        let mut text = zeros(lead);
        let point = digits.len() as i32 + power;
        if power >= 0 {
            text += digits;
            text += &zeros(power as usize);
            if trail > 0 {
                text += ".";
            }
        } else if point > 0 {
            text += &digits[..point as usize];
            text += ".";
            text += &digits[point as usize..];
        } else {
            text += "0.";
            text += &zeros(point.unsigned_abs() as usize);
            text += digits;
        }
        text + &zeros(trail)
    }

    /// `digits` plus one unit in its last place.
    fn bumped(digits: &str) -> String {
        let mut bytes = digits.as_bytes().to_vec();
        for byte in bytes.iter_mut().rev() {
            if *byte == b'9' {
                *byte = b'0';
            } else {
                *byte += 1;
                return String::from_utf8(bytes).unwrap();
            }
        }
        format!("1{}", String::from_utf8(bytes).unwrap())
    }

    #[test]
    fn text_the_printer_never_writes_reads_as_parse_reads_it() {
        let mut rng = Rng::seed_from_u64(0xdec_1a1);
        // How often the integers accepted, declined and handed over.
        let mut outcomes = [0usize; 3];
        for _ in 0..6_000 {
            // A finite normal f32, half the time in a feature map's range
            // and a quarter of the time a power of two, whose interval
            // reaches only a quarter unit below.
            let mut pattern = if rng.next_bool() {
                rng.gen_range_u64(0x0080_0000, 0x7f80_0000) as u32
            } else {
                rng.gen_range_u64(0x2b80_0000, 0x5f00_0000) as u32
            };
            if rng.gen_range_usize(0, 4) == 0 {
                pattern &= 0xff80_0000;
            }
            let m = u64::from(pattern & 0x7f_ffff | 0x80_0000);
            let q = (pattern >> 23) as i32 - 150;
            let below = if pattern & 0x7f_ffff == 0 { 1 } else { 2 };
            // The value, the f32 midpoint above it, the two ends of its f64
            // rounding interval and half a unit below it, as exact dyadics.
            let targets = [
                (m, q),
                (2 * m + 1, q - 1),
                ((m << 31) + 2, q - 31),
                ((m << 31) - below, q - 31),
                ((m << 31) - 2, q - 31),
            ];
            let (n, e) = *rng.choose(&targets);
            let (exact, power) = dyadic(n, e);
            // Exact, or cut to 15–25 significant digits and maybe one unit
            // up: just inside or just outside whichever end it was.
            let keep = rng.gen_range_usize(15, 26).min(exact.len());
            let cut_power = power + (exact.len() - keep) as i32;
            let (digits, power) = match rng.gen_range_usize(0, 3) {
                0 => (exact.clone(), power),
                1 => (exact[..keep].to_string(), cut_power),
                _ => (bumped(&exact[..keep]), cut_power),
            };
            let lead = if rng.gen_range_usize(0, 4) == 0 {
                rng.gen_range_usize(1, 4)
            } else {
                0
            };
            let trail = if rng.gen_range_usize(0, 4) == 0 {
                rng.gen_range_usize(1, 4)
            } else {
                0
            };
            let magnitude = positional(&digits, power, lead, trail);
            let wrapper = *rng.choose(&[("", ""), ("-", ""), ("(-", ")")]);
            let tail = *rng.choose(&["", ",", "])", ",0.5,1,2,3])"]);
            let src = format!("{}{magnitude}{}{tail}", wrapper.0, wrapper.1);
            let read = bits(scan_f32_element(&src, 0));
            assert_eq!(read, bits(oracle(&src, 0)), "{src}");
            assert_digit_readers_agree(src.as_bytes(), wrapper.0.len());
            outcomes[match read_exact(magnitude.as_bytes(), 0) {
                Read::F32(..) => 0,
                Read::NotF32 => 1,
                Read::Unsure => 2,
            }] += 1;
        }
        assert!(outcomes.iter().all(|&n| n > 300), "{outcomes:?}");
    }

    /// A list's reading in comparable form: value bits, nesting, end.
    fn list_bits(read: Option<(Vec<f32>, u8, usize)>) -> Option<(Vec<u32>, u8, usize)> {
        read.map(|(values, nesting, end)| {
            (values.iter().map(|v| v.to_bits()).collect(), nesting, end)
        })
    }

    /// `n` values: every spelling the printer has — both zeros, NaN, both
    /// infinities, subnormals, `1e-45`, `f32::MAX` — among uniform bit
    /// patterns and a feature map's activations.
    fn hard_values(n: usize, rng: &mut Rng) -> Vec<f32> {
        const NAMED: [f32; 14] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-45,
            -1e-45,
            1e-40,
            -1.1754942e-38,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0,
            -2.5,
        ];
        (0..n)
            .map(|i| match i % 8 {
                0 => NAMED[(i / 8) % NAMED.len()],
                1 => f32::from_bits(rng.next_u32()),
                _ => rng.gen_range_u64(0, 1 << 24) as f32 / (1 << 21) as f32 - 2.0,
            })
            .collect()
    }

    /// The list of `text` read serially and in `k` parts.
    fn read_both_ways(text: &str, k: usize) -> [Option<(Vec<u32>, u8, usize)>; 2] {
        let start = "new Float32Array([".len();
        [
            list_bits(scan_serial(text, start)),
            list_bits(scan_in_parts(text, start, |_| k)),
        ]
    }

    #[test]
    fn a_list_cut_into_parts_is_written_and_read_as_one() {
        // About what a 1st_pool feature map ships: 1.46 MB of text.
        const FIRST_POOL: usize = 75_000;
        let mut rng = Rng::seed_from_u64(0x5b11_7000);
        for k in [1, 2, 3, 7] {
            for n in [
                0,
                1,
                MIN_PART * k - 1,
                MIN_PART * k,
                MIN_PART * k + 1,
                FIRST_POOL,
            ] {
                let data = hard_values(n, &mut rng);
                let mut serial = String::new();
                render_in_parts(&data, 1, &mut serial);
                let mut split = String::new();
                render_in_parts(&data, k, &mut split);
                assert!(split == serial, "{k} parts of {n} values render otherwise");

                let [serial_read, split_read] = read_both_ways(&serial, k);
                assert_eq!(split_read, serial_read, "{k} parts of {n} values");
                let (values, _, end) = split_read.unwrap_or_else(|| panic!("{n} declined"));
                assert_eq!(end, serial.len() - "])".len());
                assert_eq!(values.len(), n);
                for (v, r) in data.iter().zip(values) {
                    assert!(v.to_bits() == r || (v.is_nan() && f32::from_bits(r).is_nan()));
                }
            }
        }
    }

    #[test]
    fn a_part_that_runs_out_of_room_is_finished_after_the_join() {
        // Zeros are two bytes a value with the comma, so every part holds
        // about nine times what its vector was reserved for.
        let data = vec![0.0; 3 * MIN_PART];
        let text = rendered(&data);
        let [serial, split] = read_both_ways(&text, 3);
        assert_eq!(split, serial);
        let (values, nesting, _) = scan_in_parts(&text, 18, |_| 3).unwrap();
        assert_eq!(
            (values.len(), values.capacity(), nesting),
            (data.len(), data.len(), 2)
        );
    }

    /// The `index`-th element of the list in `text`, as a byte range.
    fn nth_element(text: &str, index: usize) -> std::ops::Range<usize> {
        let start = "new Float32Array([".len();
        let mut from = start;
        let mut commas = text[start..].match_indices(',').map(|(at, _)| start + at);
        for _ in 0..index {
            from = commas.next().map_or(text.len(), |at| at + 1);
        }
        from..commas.next().unwrap_or(text.len() - "])".len())
    }

    #[test]
    fn a_list_that_declines_declines_in_every_part_count() {
        let mut rng = Rng::seed_from_u64(0x0dec_11e5);
        let n = 3 * MIN_PART;
        let text = rendered(&hard_values(n, &mut rng));
        // Each edit: the element it replaces (at a fraction of the list),
        // and the text it puts there.
        let mut edits: Vec<(f64, &str)> = vec![
            (0.95, "1, 2"),      // a space after a comma, in the last part
            (0.5, "1e5"),        // an exponent
            (0.45, "[[1,2],3]"), // a nested list whose `]` is in part 2
            (0.6, "0.1"),        // a decimal that is no f32
            (0.2, "@"),          // a byte the general lexer refuses
        ];
        // Text the element alphabet holds and no element is, at the first,
        // a middle and the last element.
        for at in [0.0, 0.5, 1.0] {
            for bad in [
                "", "1..5", "(-3", "((0/0)", "1-2", "1/0", "--1", ")(", "(-1/0",
            ] {
                edits.push((at, bad));
            }
        }
        let mut texts: Vec<String> = edits
            .iter()
            .map(|&(at, bad)| {
                let mut edited = text.clone();
                edited.replace_range(nth_element(&text, ((n - 1) as f64 * at) as usize), bad);
                edited
            })
            .collect();
        // A trailing comma, and a missing `)`.
        texts.push(text.replace("])", ",])"));
        texts.push(text.replace("])", "];"));
        for edited in &texts {
            for k in [2, 3, 7] {
                let [serial, split] = read_both_ways(edited, k);
                assert_eq!(split, serial, "{k} parts");
            }
            // The general lexer reads what the scanner declines: the same
            // tokens, or the same error, as without the `new` that would
            // have chosen the scanner.
            let bare = lex(&edited["new ".len()..]).map(|spanned| {
                let mut tokens = vec![Token::Ident("new".into())];
                tokens.extend(spanned.into_iter().map(|t| t.token));
                tokens
            });
            let lexed = lex(edited).map(|spanned| spanned.into_iter().map(|t| t.token).collect());
            assert!(lexed == bare, "lexed otherwise: {}", &edited[..60]);
        }
        let missing_paren = &texts[texts.len() - 1];
        assert!(
            read_both_ways(missing_paren, 2)[0].is_some(),
            "the list itself is whole"
        );
        assert!(texts[..texts.len() - 1]
            .iter()
            .all(|t| read_both_ways(t, 2)[0].is_none()));
    }

    #[test]
    fn declining_fragments_are_scanned_once_in_all() {
        // 200 kB of lists that decline at their first element, with no `]`
        // anywhere, then the same before a long list that reads: each
        // fragment's scan stops at its own space, so one `lex` scans its
        // text at most once, however many fragments there are.
        let fragment = "new Float32Array([1 ";
        let fragments = fragment.repeat(10_000);
        let long = rendered(&vec![0.25; 3 * MIN_PART]);
        for (text, lists) in [(fragments.clone(), 0), (fragments + &long, 1)] {
            let starts: Vec<usize> = text.match_indices("([").map(|(at, _)| at + 2).collect();
            let scanned: usize = starts
                .iter()
                .map(|&i| list_end(text.as_bytes(), i) - i)
                .sum();
            assert!(
                scanned <= text.len(),
                "{scanned} bytes scanned of {}",
                text.len()
            );
            let tokens = lex(&text).unwrap();
            let scanned_lists = tokens
                .iter()
                .filter(|t| matches!(t.token, Token::F32List { .. }))
                .count();
            assert_eq!(scanned_lists, lists);
            assert_eq!(tokens.len(), 10_000 * 5 + 3 * lists + 1);
        }
    }

    #[test]
    fn list_end_is_the_first_byte_outside_the_alphabet_at_every_offset() {
        // Backgrounds at both ends of the alphabet's range and a comma, so
        // each probe byte's neighbours are inside; a probe is any byte.
        for background in [b'(', b'9', b','] {
            for len in 0..=17usize {
                for at in 0..len {
                    for probe in 0..=255u8 {
                        let mut hay = vec![background; len];
                        hay[at] = probe;
                        if at + 2 < len {
                            hay[at + 2] = b'*';
                        }
                        for from in 0..=len {
                            let want = hay[from..]
                                .iter()
                                .position(|&b| !in_list_alphabet(b))
                                .map_or(len, |p| from + p);
                            assert_eq!(list_end(&hay, from), want, "{hay:?} from {from}");
                        }
                    }
                }
            }
        }
        let inside: Vec<u8> = (0..=255u8).filter(|&b| in_list_alphabet(b)).collect();
        assert_eq!(inside, b"(),-./0123456789");
    }
}
