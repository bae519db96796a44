//! Decimal text for `Float32Array` payloads without `core::fmt`.
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

/// Appends `new Float32Array([…])` holding `data` to `out`.
///
/// Each element is the widened value's `Display` text; a negative value is
/// `(-x)` because the grammar has no negative literals, negative zero is the
/// bare `-0` `Display` gives it, and the non-finite values are the
/// divisions that produce them: `(0/0)`, `(1/0)`, `(-1/0)`. This is the
/// alphabet [`lexer`](crate::lexer)'s list scanner reads back.
pub(crate) fn render_f32_literal(data: &[f32], out: &mut String) {
    out.reserve(data.len() * 20 + 20);
    out.push_str("new Float32Array([");
    let mut chunk = [0u8; CHUNK];
    let mut len = 0;
    for (i, &v) in data.iter().enumerate() {
        if len + ELEMENT_ROOM > CHUNK {
            push_ascii(out, &chunk[..len]);
            len = 0;
        }
        if i > 0 {
            chunk[len] = b',';
            len += 1;
        }
        len += write_element(&mut chunk[len..], v);
    }
    push_ascii(out, &chunk[..len]);
    out.push_str("])");
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
}
