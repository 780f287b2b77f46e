//! The shortest round-trip text of an `f64`, byte for byte what `{:?}`
//! writes, without `fmt`: [`json::Writer::f64`](crate::json::Writer::f64)
//! calls [`push_debug`].
//!
//! The digits come from a port of core's Grisu shortest mode
//! (`core::num::flt2dec::strategy::grisu::format_shortest_opt`, after
//! Loitsch, "Printing Floating-Point Numbers Quickly and Accurately with
//! Integers", PLDI 2010): the same decode, the same 81 cached powers of ten,
//! the same stopping digit and the same round-and-weed check. Where core
//! emits the digits one at a time, each waiting on the one before, the port
//! finds the stopping digit first and takes the kept digits as one integer,
//! which the layout then prints in place. Grisu gives up (`None`) on the
//! rare value whose shortest digits it cannot prove — about one in two
//! hundred random bit patterns — and core then runs Dragon, an exact bignum
//! search; here `write!("{v:?}")` runs instead, which is core's
//! Grisu-then-Dragon, so every byte is `{:?}`'s either way. The layout is
//! `fmt::float`'s for `{:?}`: decimal with at least one fractional digit,
//! unless `|v|` is non-zero and below `1e-4`, or at least `1e16`; then
//! `d.ddde±x` (`1e21`, `1.5e-7`, `5e-324`). `-0.0` keeps its sign.

use std::fmt::Write as _;

/// Append `{v:?}` for a finite `v` to `out`.
pub(crate) fn push_debug(out: &mut String, v: f64) {
    let mut text = [0u8; 32];
    match layout(v, &mut text) {
        // ASCII: the check cannot fail, and costs a scan of ≤ 24 bytes.
        Some(len) => {
            if let Ok(text) = std::str::from_utf8(&text[..len]) {
                out.push_str(text);
            }
        }
        None => {
            let _ = write!(out, "{v:?}");
        }
    }
}

/// `{v:?}` for a finite `v` into `text`, and its length; `None` where Grisu
/// gives up. The longest text is 24 bytes (`-1.2345678901234567e-308`).
fn layout(v: f64, text: &mut [u8; 32]) -> Option<usize> {
    // The sign, which a positive value's first byte writes over.
    let mut at = usize::from(v.is_sign_negative());
    text[0] = b'-';
    let abs = v.abs();
    if abs == 0.0 {
        text[at..at + 3].copy_from_slice(b"0.0");
        return Some(at + 3);
    }
    // `v ≈ 0.d₁d₂…d_len × 10^exp`, the digits as one integer, printed
    // straight into place in the form `{:?}` picks from the value.
    let (digits, len, exp) = shortest(abs)?;
    if !(1e-4..1e16).contains(&abs) {
        // `d.ddde-x`
        let tail = len - 1;
        text[at] = b'0' + (digits / POW10[tail]) as u8;
        at += 1;
        if tail > 0 {
            text[at] = b'.';
            decimal(&mut text[at + 1..at + 1 + tail], digits % POW10[tail]);
            at += 1 + tail;
        }
        let e = i32::from(exp) - 1;
        text[at..at + 2].copy_from_slice(b"e-");
        at += 1 + usize::from(e < 0);
        let e = u64::from(e.unsigned_abs());
        let e_len = e.checked_ilog10().map_or(1, |log| log as usize + 1);
        decimal(&mut text[at..at + e_len], e);
        at += e_len;
    } else if exp <= 0 {
        // `0.000ddd`
        let zeros = exp.unsigned_abs() as usize;
        text[at..at + 2 + zeros].fill(b'0');
        text[at + 1] = b'.';
        at += 2 + zeros;
        decimal(&mut text[at..at + len], digits);
        at += len;
    } else if (exp as usize) < len {
        // `ddd.ddd`
        let (point, tail) = (exp as usize, len - exp as usize);
        decimal(&mut text[at..at + point], digits / POW10[tail]);
        text[at + point] = b'.';
        decimal(
            &mut text[at + point + 1..at + 1 + len],
            digits % POW10[tail],
        );
        at += 1 + len;
    } else {
        // `ddd000.0`
        let point = exp as usize;
        decimal(&mut text[at..at + len], digits);
        text[at + len..at + point + 2].fill(b'0');
        text[at + point] = b'.';
        at += point + 2;
    }
    Some(at)
}

/// A `u64` significand with a binary exponent: `f × 2^e`.
#[derive(Clone, Copy, Debug)]
struct Fp {
    f: u64,
    e: i16,
}

impl Fp {
    /// The product's upper 64 bits, rounded half up.
    fn mul(self, other: Fp) -> Fp {
        let product = u128::from(self.f) * u128::from(other.f);
        let (hi, lo) = ((product >> 64) as u64, product as u64);
        Fp {
            f: hi + (lo >> 63),
            e: self.e + other.e + 64,
        }
    }

    /// Shifted left until the top bit is set.
    fn normalize(self) -> Fp {
        let lz = self.f.leading_zeros();
        Fp {
            f: self.f << lz,
            e: self.e - lz as i16,
        }
    }

    /// Shifted left to exponent `e`, which is no larger than its own.
    fn normalize_to(self, e: i16) -> Fp {
        Fp {
            f: self.f << (self.e - e),
            e,
        }
    }
}

/// `(f, e, k)`: `f × 2^e` rounds `10^k`, for `k` from -308 to 332 in steps
/// of 8 (core's table; it is `((10^k << 64 >> (bits - 1)) + 1) >> 1` with
/// a 64-bit `f`, for `bits` the bit length of `10^k` or of
/// `2^(80 - 4k) / 10^-k`).
#[rustfmt::skip]
const CACHED_POW10: [(u64, i16, i16); 81] = [
    (0xe61acf033d1a45df, -1087, -308), (0xab70fe17c79ac6ca, -1060, -300),
    (0xff77b1fcbebcdc4f, -1034, -292), (0xbe5691ef416bd60c, -1007, -284),
    (0x8dd01fad907ffc3c, -980, -276), (0xd3515c2831559a83, -954, -268),
    (0x9d71ac8fada6c9b5, -927, -260), (0xea9c227723ee8bcb, -901, -252),
    (0xaecc49914078536d, -874, -244), (0x823c12795db6ce57, -847, -236),
    (0xc21094364dfb5637, -821, -228), (0x9096ea6f3848984f, -794, -220),
    (0xd77485cb25823ac7, -768, -212), (0xa086cfcd97bf97f4, -741, -204),
    (0xef340a98172aace5, -715, -196), (0xb23867fb2a35b28e, -688, -188),
    (0x84c8d4dfd2c63f3b, -661, -180), (0xc5dd44271ad3cdba, -635, -172),
    (0x936b9fcebb25c996, -608, -164), (0xdbac6c247d62a584, -582, -156),
    (0xa3ab66580d5fdaf6, -555, -148), (0xf3e2f893dec3f126, -529, -140),
    (0xb5b5ada8aaff80b8, -502, -132), (0x87625f056c7c4a8b, -475, -124),
    (0xc9bcff6034c13053, -449, -116), (0x964e858c91ba2655, -422, -108),
    (0xdff9772470297ebd, -396, -100), (0xa6dfbd9fb8e5b88f, -369, -92),
    (0xf8a95fcf88747d94, -343, -84), (0xb94470938fa89bcf, -316, -76),
    (0x8a08f0f8bf0f156b, -289, -68), (0xcdb02555653131b6, -263, -60),
    (0x993fe2c6d07b7fac, -236, -52), (0xe45c10c42a2b3b06, -210, -44),
    (0xaa242499697392d3, -183, -36), (0xfd87b5f28300ca0e, -157, -28),
    (0xbce5086492111aeb, -130, -20), (0x8cbccc096f5088cc, -103, -12),
    (0xd1b71758e219652c, -77, -4), (0x9c40000000000000, -50, 4),
    (0xe8d4a51000000000, -24, 12), (0xad78ebc5ac620000, 3, 20),
    (0x813f3978f8940984, 30, 28), (0xc097ce7bc90715b3, 56, 36),
    (0x8f7e32ce7bea5c70, 83, 44), (0xd5d238a4abe98068, 109, 52),
    (0x9f4f2726179a2245, 136, 60), (0xed63a231d4c4fb27, 162, 68),
    (0xb0de65388cc8ada8, 189, 76), (0x83c7088e1aab65db, 216, 84),
    (0xc45d1df942711d9a, 242, 92), (0x924d692ca61be758, 269, 100),
    (0xda01ee641a708dea, 295, 108), (0xa26da3999aef774a, 322, 116),
    (0xf209787bb47d6b85, 348, 124), (0xb454e4a179dd1877, 375, 132),
    (0x865b86925b9bc5c2, 402, 140), (0xc83553c5c8965d3d, 428, 148),
    (0x952ab45cfa97a0b3, 455, 156), (0xde469fbd99a05fe3, 481, 164),
    (0xa59bc234db398c25, 508, 172), (0xf6c69a72a3989f5c, 534, 180),
    (0xb7dcbf5354e9bece, 561, 188), (0x88fcf317f22241e2, 588, 196),
    (0xcc20ce9bd35c78a5, 614, 204), (0x98165af37b2153df, 641, 212),
    (0xe2a0b5dc971f303a, 667, 220), (0xa8d9d1535ce3b396, 694, 228),
    (0xfb9b7cd9a4a7443c, 720, 236), (0xbb764c4ca7a44410, 747, 244),
    (0x8bab8eefb6409c1a, 774, 252), (0xd01fef10a657842c, 800, 260),
    (0x9b10a4e5e9913129, 827, 268), (0xe7109bfba19c0c9d, 853, 276),
    (0xac2820d9623bf429, 880, 284), (0x80444b5e7aa7cf85, 907, 292),
    (0xbf21e44003acdd2d, 933, 300), (0x8e679c2f5e44ff8f, 960, 308),
    (0xd433179d9c8cb841, 986, 316), (0x9e19db92b4e31ba9, 1013, 324),
    (0xeb96bf6ebadf77d9, 1039, 332),
];

/// The bounds of the scaled value's binary exponent: `plus × 10^-k` lands
/// in `[4, 2^32)`, so its integral part fits a `u32` and ten times its
/// fractional part cannot overflow a `u64` (V8's choice too).
const ALPHA: i16 = -60;
const GAMMA: i16 = -32;

/// `(k, 10^k)` from [`CACHED_POW10`] with `alpha <= e <= gamma`.
fn cached_power(alpha: i16, gamma: i16) -> (i16, Fp) {
    let first = i32::from(CACHED_POW10[0].1);
    let last = i32::from(CACHED_POW10[CACHED_POW10.len() - 1].1);
    let range = CACHED_POW10.len() as i32 - 1;
    let idx = (i32::from(gamma) - first) * range / (last - first);
    let (f, e, k) = CACHED_POW10[idx as usize];
    debug_assert!(alpha <= e && e <= gamma);
    (k, Fp { f, e })
}

/// The shortest digits of a positive finite `v` as one integer, their
/// count `len` (17 at most) and the decimal exponent `exp` with
/// `v ≈ 0.d₁d₂…d_len × 10^exp`; `None` where Grisu cannot prove them
/// shortest and closest.
fn shortest(v: f64) -> Option<(u64, usize, i16)> {
    // Decode as core's `flt2dec::decode` does: `v = mant × 2^exp`, and
    // every real in `(mant - minus, mant + plus) × 2^exp` reads back as `v`.
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i16;
    let fraction = bits & ((1 << 52) - 1);
    let (mant, minus, plus, exp) = if biased == 0 {
        (fraction << 1, 1, 1, -1075)
    } else if fraction == 0 {
        // A power of two: the neighbour below is half as far.
        ((1u64 << 52) << 2, 1, 2, biased - 1075 - 2)
    } else {
        ((fraction | 1 << 52) << 1, 1, 1, biased - 1075 - 1)
    };

    // The normalized values with the shared exponent.
    let plus = Fp {
        f: mant + plus,
        e: exp,
    }
    .normalize();
    let minus = Fp {
        f: mant - minus,
        e: exp,
    }
    .normalize_to(plus.e);
    let v = Fp { f: mant, e: exp }.normalize_to(plus.e);

    // Scale by `10^minusk` so that `plus` lands in `[4, 2^32)`; each scaled
    // value is then within 1 ulp of exact.
    let (minusk, cached) = cached_power(ALPHA - plus.e - 64, GAMMA - plus.e - 64);
    let plus = plus.mul(cached);
    let minus = minus.mul(cached);
    let v = v.mul(cached);

    // `minus1 .. plus1` is the liberal interval the digits are generated
    // in; round-and-weed accepts them only inside the conservative one,
    // 1 ulp further in on each side.
    let plus1 = plus.f + 1;
    let minus1 = minus.f - 1;
    let e = -plus.e as u32;
    let plus1int = (plus1 >> e) as u32;
    let plus1frac = plus1 & ((1 << e) - 1);
    let delta1 = plus1 - minus1;
    let int_len = plus1int.checked_ilog10()? as usize + 1;
    let exp = int_len as i16 - minusk;

    // Core emits `plus1`'s digits one at a time and stops after the first
    // that leaves less than `delta1 = plus1 - minus1` behind (Loitsch's
    // Theorem 6.2); a digit's division by `10^kappa` or multiplication of
    // the fraction by 10 waits on the one before. What is left behind only
    // grows as digits are dropped, so here the stop is found first and the
    // kept digits are taken as one integer.
    if plus1frac < delta1 {
        // The stop is within the integral digits, after `int_len - kappa`
        // of them: the largest `kappa` whose remainder is under `delta1`.
        let left = |kappa: usize| (u64::from(plus1int % POW10[kappa] as u32) << e) + plus1frac;
        let kappa = (0..int_len).rev().find(|&kappa| left(kappa) < delta1)?;
        let digits = u64::from(plus1int) / POW10[kappa];
        let ten_kappa = POW10[kappa] << e;
        let digits = round_and_weed(digits, left(kappa), delta1, plus1 - v.f, ten_kappa, 1)?;
        return Some((digits, int_len - kappa, exp));
    }
    // Every integral digit is kept, and `k` fractional ones: the fewest
    // whose remainder, scaled by `10^k`, is under `delta1 × 10^k`. That
    // holds once `10^k ≥ 2^(e + 1 - bits) > 2^e / delta1`, for `bits` the
    // bit length of `delta1` (at most `e`: `delta1 <= plus1frac < 2^e`);
    // `78913 / 2^18` is `log10 2` close enough that the ceiling of
    // `(e + 1 - bits) · log10 2` is exact for every `e <= 64`.
    let kept = |k: usize| {
        let scaled = u128::from(plus1) * u128::from(POW10[k]);
        ((scaled >> e) as u64, scaled as u64 & ((1 << e) - 1))
    };
    let bits = 64 - delta1.leading_zeros();
    let mut k = ((e + 1 - bits) as usize * 78913).div_ceil(1 << 18);
    while k > 1 && kept(k - 1).1 < delta1 * POW10[k - 1] {
        k -= 1;
    }
    let len = int_len + k;
    if len > 17 {
        return None;
    }
    let (digits, remainder) = kept(k);
    let ulp = POW10[k];
    let plus1v = (plus1 - v.f) * ulp;
    let digits = round_and_weed(digits, remainder, delta1 * ulp, plus1v, 1 << e, ulp)?;
    Some((digits, len, exp))
}

/// `10^k` for every `k` whose power a `u64` holds.
const POW10: [u64; 20] = {
    let mut pow = [1u64; 20];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1] * 10;
        k += 1;
    }
    pow
};

/// The decimal digits of 0 to 99, two bytes each (`json::Writer::u64`
/// prints with them too).
pub(crate) const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v`'s last `out.len()` decimal digits into `out`, zero-padded,
/// two per division by a constant.
fn decimal(out: &mut [u8], v: u64) {
    let mut rest = v;
    let mut at = out.len();
    while at >= 2 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if at == 1 {
        out[0] = b'0' + (rest % 10) as u8;
    }
}

/// The digits end at `plus1`'s; lower the last one while that brings the
/// number closer to `v`, and keep the result only if it is provably the
/// closest shortest representation inside the conservative interval.
/// Every argument is scaled by one implicit factor: `remainder = plus1 mod
/// 10^kappa`, `threshold = plus1 - minus1`, `plus1v = plus1 - v`,
/// `ten_kappa = 10^kappa` and `ulp` is one unit of the scaled values.
fn round_and_weed(
    mut digits: u64,
    remainder: u64,
    threshold: u64,
    plus1v: u64,
    ten_kappa: u64,
    ulp: u64,
) -> Option<u64> {
    // `plus1` minus `v - 1 ulp` and minus `v + 1 ulp`.
    let plus1v_down = plus1v + ulp;
    let plus1v_up = plus1v - ulp;

    // `plus1w = plus1 - w` for the candidate `w`; stop when `w` is at or
    // below `v + 1 ulp`, when the next candidate leaves the interval, or
    // when it is no closer to `v + 1 ulp`. The last digit never reaches 0.
    let mut plus1w = remainder;
    while plus1w < plus1v_up
        && threshold - plus1w >= ten_kappa
        && (plus1w + ten_kappa < plus1v_up || plus1v_up - plus1w >= plus1w + ten_kappa - plus1v_up)
    {
        digits -= 1;
        plus1w += ten_kappa;
    }

    // The same candidate must be the closest to `v - 1 ulp` as well …
    let closer_below = plus1w < plus1v_down
        && threshold - plus1w >= ten_kappa
        && (plus1w + ten_kappa < plus1v_down
            || plus1v_down - plus1w >= plus1w + ten_kappa - plus1v_down);
    // … and lie between `minus0 = minus1 + 2 ulp` and `plus0 = plus1 - 2 ulp`.
    let inside = 2 * ulp <= plus1w && plus1w <= threshold - 4 * ulp;
    (!closer_below && inside).then_some(digits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::SplitMix64;

    /// `push_debug`'s text for `v`, and whether Grisu produced it.
    fn written(v: f64) -> (String, bool) {
        let mut out = String::new();
        push_debug(&mut out, v);
        (out, v == 0.0 || shortest(v.abs()).is_some())
    }

    /// Every finite value must write exactly what `{:?}` writes; counts the
    /// values the Grisu path answered.
    fn check(values: impl Iterator<Item = f64>) -> (usize, usize) {
        let (mut total, mut grisu) = (0, 0);
        for v in values.filter(|v| v.is_finite()) {
            let (text, by_grisu) = written(v);
            assert_eq!(text, format!("{v:?}"), "bits {:#018x}", v.to_bits());
            total += 1;
            grisu += usize::from(by_grisu);
        }
        (total, grisu)
    }

    #[test]
    fn random_bit_patterns_write_as_debug_does() {
        let mut rng = SplitMix64::new(0x0f64_7e47);
        let (total, grisu) = check((0..1_000_000).map(|_| f64::from_bits(rng.next_u64())));
        // About 1/2048 of the patterns are NaN or infinite.
        assert!(total > 998_000, "{total}");
        // Grisu answers nearly all of them, and the fallback is exercised.
        assert!(grisu * 100 >= total * 99, "{grisu} of {total}");
        assert!(grisu < total, "the fallback never ran");
    }

    #[test]
    fn reply_magnitudes_write_as_debug_does() {
        let mut rng = SplitMix64::new(0x00c0_5175);
        // Costs from 1e-3 to 1e7, log-uniform; integers below 2^53.
        let costs = (0..50_000).map(|_| {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            10f64.powf(-3.0 + 10.0 * unit)
        });
        let (total, grisu) = check(costs);
        assert!(grisu * 100 >= total * 99, "{grisu} of {total}");
        check((0..50_000).map(|_| (rng.next_u64() >> (11 + rng.gen_range(53))) as f64));
    }

    #[test]
    fn edge_values_write_as_debug_does() {
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let down = |v: f64| f64::from_bits(v.to_bits() - 1);
        let two53 = (1u64 << 53) as f64;
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            down(f64::MIN_POSITIVE),
            f64::MAX,
            f64::MIN,
            down(1e-4),
            1e-4,
            up(1e-4),
            down(1e16),
            1e16,
            up(1e16),
            0.1 + 0.2,
            two53 - 1.0,
            two53,
            two53 + 1.0,
            up(two53),
            1e21,
            1.5e-7,
            1.0,
            0.5,
            123456789.125,
        ];
        let (total, _) = check(edges.into_iter());
        assert_eq!(total, edges.len());
        // Spelled out, so the layout rules are readable here.
        for (v, text) in [
            (-0.0, "-0.0"),
            (5e-324, "5e-324"),
            (1e16, "1e16"),
            (down(1e16), "9999999999999998.0"),
            (1e-4, "0.0001"),
            (down(1e-4), "9.999999999999999e-5"),
            (f64::MAX, "1.7976931348623157e308"),
            (-f64::MIN_POSITIVE, "-2.2250738585072014e-308"),
        ] {
            assert_eq!(written(v).0, text);
        }
    }
}
