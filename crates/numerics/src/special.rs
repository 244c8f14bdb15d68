//! Numerically careful special functions.
//!
//! Everything the PAC-Bayes and information-theory layers need lives here:
//! log-domain reductions (`log_sum_exp`, and `softmax_in_place`, which
//! turns log weights into probabilities), the log-gamma function, the error
//! function, safe entropy terms (`xlogy`), a branch-free logarithm for
//! vectorized loops (`ln_positive_normal`), and the Bernoulli KL divergence
//! together with its upper inverse (used by Seeger/Maurer-style bounds).

/// Natural logarithm of 2, `ln 2`.
pub const LN_2: f64 = std::f64::consts::LN_2;

/// Streaming compensated accumulator (Kahan–Babuška–Neumaier).
///
/// Keeps a running error term so that long sums of mixed-magnitude terms
/// (KL divergences, log-likelihoods, Gibbs weights) lose at most one ulp
/// to cancellation instead of `O(n)` ulps. Unlike pairwise summation it
/// is streaming — terms can arrive one at a time in a fixed order, which
/// keeps parallel chunked reductions bit-deterministic.
///
/// ```
/// use dplearn_numerics::special::KahanSum;
/// let mut acc = KahanSum::new();
/// for &x in &[1e16, 1.0, -1e16] {
///     acc.add(x);
/// }
/// assert_eq!(acc.value(), 1.0); // naive summation returns 0.0
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    comp: f64,
}

impl KahanSum {
    /// An empty accumulator (sum 0).
    pub fn new() -> Self {
        KahanSum::default()
    }

    /// Add one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        if self.sum.is_finite() {
            self.sum + self.comp
        } else {
            // An overflowed or NaN sum makes the compensation term
            // `inf − inf = NaN`; report the raw (correctly signed) sum.
            self.sum
        }
    }
}

impl Extend<f64> for KahanSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = KahanSum::new();
        acc.extend(iter);
        acc
    }
}

/// Compensated sum of an iterator of terms (see [`KahanSum`]).
pub fn kahan_sum<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    xs.into_iter().collect::<KahanSum>().value()
}

/// `log(exp(a) + exp(b))` computed without overflow.
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `log Σᵢ exp(xᵢ)` computed without overflow.
///
/// Returns `-inf` for an empty slice (the log of an empty sum).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if m == f64::INFINITY {
        return f64::INFINITY;
    }
    let s = kahan_sum(xs.iter().map(|&x| (x - m).exp()));
    m + s.ln()
}

/// Cells per block of [`softmax_in_place`]'s `exp` pass: 8 KiB, so a
/// block stays in L1 from its pre-scan to its `exp`s. A multiple of the
/// four lanes, so blocks leave each cell's lane alone.
const SOFTMAX_BLOCK: usize = 1024;

/// Softmax in place: overwrite the log weights `w` with the
/// probabilities `exp(wᵢ − z)` and return the log normalizer
/// `z = log Σᵢ exp(wᵢ)`, with one `exp` per cell.
///
/// Three passes:
///
/// 1. the maximum `m`, scanned in four lanes by compare-selects that
///    pass over NaN, as `f64::max` does (a maximum is the same value
///    under any association);
/// 2. `wᵢ ← exp(wᵢ − m)`, written in place and summed in four fixed
///    lanes: cell `i` goes to lane `i mod 4`, the lanes fold as
///    `(l0 + l1) + (l2 + l3)`, and the tail cells are added in order, so
///    the slice's length alone sets the association;
/// 3. `wᵢ ← wᵢ / s`, one division per cell by that sum `s`.
///
/// Pass 2 runs block by block: 1024 cells of the whole-lane body at a
/// time, then the tail. A pre-scan checks each block's smallest argument
/// `wᵢ − m`. When it is at least [`EXP_NORMAL_MIN`], the block runs the
/// in-crate [`exp_normal_range`]; a block with a NaN, a `−∞` or any
/// argument below that bound runs `f64::exp` on every cell. So every
/// cell that `f64::exp` would make subnormal or zero keeps `f64::exp`'s
/// bits, and weights that mostly underflow cost a pre-scan more than
/// `f64::exp` alone.
///
/// It returns `m + ln s`. A `−∞` weight becomes probability exactly 0.
/// When the weights cannot be normalized the return value is not
/// finite — `−∞` for an empty slice or when every weight is `−∞` or
/// NaN, `+∞` when a weight is `+∞`, NaN when a NaN sits beside a finite
/// weight — and the slice holds no meaningful values; the caller
/// discards it.
///
/// The sum is uncompensated, so `z` may differ from [`log_sum_exp`]'s
/// Kahan sum in the last ulps; the tests hold every probability within
/// 1e-12 relative of the two-`exp` fold `exp(wᵢ − log_sum_exp(w))`.
pub fn softmax_in_place(w: &mut [f64]) -> f64 {
    const LANES: usize = 4;
    // `f64::max` would test for NaN on every cell; a compare-select is
    // one packed max. Starting from −∞, both skip NaN and give the same
    // maximum but for the sign of a zero, which changes no output bit.
    let max_of = |m: f64, x: f64| if x > m { x } else { m };
    let mut lane_max = [f64::NEG_INFINITY; LANES];
    let mut chunks = w.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for (m, &x) in lane_max.iter_mut().zip(c) {
            *m = max_of(*m, x);
        }
    }
    let m = lane_max
        .into_iter()
        .chain(chunks.remainder().iter().copied())
        .fold(f64::NEG_INFINITY, max_of);
    if !m.is_finite() {
        return m;
    }
    let mut lane_sum = [0.0f64; LANES];
    let (body, tail) = w.split_at_mut(w.len() - w.len() % LANES);
    for block in body.chunks_mut(SOFTMAX_BLOCK) {
        if exp_args_in_normal_range(block, m) {
            exp_in_lanes(block, m, &mut lane_sum, exp_normal_range);
        } else {
            exp_in_lanes(block, m, &mut lane_sum, f64::exp);
        }
    }
    let [l0, l1, l2, l3] = lane_sum;
    let mut sum = (l0 + l1) + (l2 + l3);
    let exp: fn(f64) -> f64 = if exp_args_in_normal_range(tail, m) {
        exp_normal_range
    } else {
        f64::exp
    };
    for x in tail {
        *x = exp(*x - m);
        sum += *x;
    }
    for x in w.iter_mut() {
        *x /= sum;
    }
    m + sum.ln()
}

/// Whether the smallest `x − m` over `cells` is at least
/// [`EXP_NORMAL_MIN`]. A NaN fails the comparison, so a NaN cell makes
/// the answer `false`; the `&` keeps the scan free of branches.
fn exp_args_in_normal_range(cells: &[f64], m: f64) -> bool {
    cells
        .iter()
        .fold(true, |ok, &x| ok & (x - m >= EXP_NORMAL_MIN))
}

/// `xᵢ ← exp(xᵢ − m)` over `cells`, a whole number of lanes, each cell
/// added to lane `i mod 4` of `lanes`.
fn exp_in_lanes(cells: &mut [f64], m: f64, lanes: &mut [f64; 4], exp: impl Fn(f64) -> f64) {
    for c in cells.chunks_exact_mut(4) {
        for (s, x) in lanes.iter_mut().zip(c) {
            *x = exp(*x - m);
            *s += *x;
        }
    }
}

/// `log(1 + exp(x))` without overflow (the softplus function).
pub fn log1p_exp(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// The logistic sigmoid `1 / (1 + exp(-x))`, stable at both tails.
pub fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `x * ln(y)` with the measure-theoretic convention `0 * ln(0) = 0`.
///
/// The convention makes entropy and KL sums well defined when an outcome
/// has zero probability.
pub fn xlogy(x: f64, y: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x * y.ln()
    }
}

/// `x * ln(x/y)` with `0 ln(0/y) = 0`; the generic KL summand.
///
/// Returns `+inf` when `x > 0` but `y == 0` (absolute-continuity failure).
pub fn xlogx_over_y(x: f64, y: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if y == 0.0 {
        f64::INFINITY
    } else {
        x * (x / y).ln()
    }
}

/// Natural logarithm of a **positive normal** `x` (`f64::MIN_POSITIVE ≤
/// x ≤ f64::MAX`), with no branch and no table, so a loop over it
/// vectorizes. fdlibm bounds its error below 1 ulp; the tests hold it
/// within 1 ulp of `f64::ln`.
///
/// fdlibm's `__ieee754_log` (Sun Microsystems, 1993), in the branch-free
/// form FreeBSD and musl use: `x = 2ᵏ·(1+f)` with `1+f` in `[√½, √2)`,
/// `s = f/(2+f)`, and `ln(1+f) = f − hfsq + s·(hfsq + R)` with
/// `hfsq = f²/2` and fdlibm's `R = Lg1·s² + Lg2·s⁴ + … + Lg7·s¹⁴`.
/// `ln(1.0)` is exactly `+0.0`.
///
/// Zero, subnormal, negative, infinite and NaN arguments return a
/// finite value that means nothing. The caller tests the argument and
/// sends those cases elsewhere: the MI row kernel in
/// `dplearn_infotheory::flat` redoes such a row with [`xlogx_over_y`].
#[inline]
pub fn ln_positive_normal(x: f64) -> f64 {
    // ln 2 split so that k·LN2_HI is exact for |k| < 2¹¹.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // High word of √½. Adding ONE_HI − SQRT_HALF_HI carries into the
    // exponent exactly when the mantissa is at least √2's, so k counts
    // binades [√½, √2)·2ᵏ; adding SQRT_HALF_HI back to the mantissa bits
    // gives 1+f in [√½, √2).
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e_0000_0000;
    const ONE_HI: u64 = 0x3ff0_0000_0000_0000;
    // 2⁵², for reading the biased exponent out of the low mantissa bits.
    const TWO_52: u64 = 0x4330_0000_0000_0000;

    let ix = x.to_bits().wrapping_add(ONE_HI - SQRT_HALF_HI);
    let k = f64::from_bits(TWO_52 | (ix >> 52)) - (f64::from_bits(TWO_52) + 1023.0);
    let f = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + SQRT_HALF_HI) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// The lower end of [`exp_normal_range`]'s domain.
///
/// The kernel scales by `2ᵏ`, `k = round(x / ln 2)`, through the exponent
/// bits of a number in `[½, 2)`, so its result is a normal number by
/// construction exactly when `k ≥ −1021`: when `x / ln 2 > −1021.5`, that
/// is `x > −708.04`. `−708.0` leaves `0.04` for the rounding of
/// `x · (1/ln 2)`. (`ln(f64::MIN_POSITIVE) ≈ −708.40` is not the bound:
/// from there to `−708.04`, `k = −1022`, and a reduced value below 1
/// would need a subnormal result, which no exponent field holds.)
pub const EXP_NORMAL_MIN: f64 = -708.0;

/// `eˣ` for `x` in `[EXP_NORMAL_MIN, 709]` (see [`EXP_NORMAL_MIN`]), with
/// no branch and no table, so a loop over it vectorizes. fdlibm bounds
/// its error below 1 ulp; the tests hold it within 1 ulp of `f64::exp`.
/// `exp(0.0)` is exactly `1.0`.
///
/// fdlibm's `__ieee754_exp` (Sun Microsystems, 1993) in branch-free form:
/// `k = round(x / ln 2)` by adding `1.5·2⁵²`, `r = x − k·ln 2` with `ln 2`
/// split hi/lo (Cody–Waite), `eʳ = 1 − ((lo − r·c/(2 − c)) − hi)` with
/// fdlibm's five-term Remez `c = r − r²·(P1 + r²·(P2 + … + r²·P5))`, and
/// the scaling by `2ᵏ` done by adding `k` to the exponent bits.
///
/// Outside the domain the result means nothing: below it the scaled
/// exponent leaves the normal range, and a NaN or infinite argument gives
/// a meaningless value. The caller tests the argument and sends those
/// cases elsewhere: [`softmax_in_place`] runs `f64::exp` on such a block.
#[inline]
pub fn exp_normal_range(x: f64) -> f64 {
    const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
    // ln 2 split so that k·LN2_HI is exact for |k| < 2²¹.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
    const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
    const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
    const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
    const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);
    // 1.5·2⁵²: adding it rounds to the nearest integer and leaves that
    // integer, two's complement, in the low mantissa bits.
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);

    let kd = x * INV_LN2 + SHIFT;
    let k = kd - SHIFT;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // y lies in [½, 2); shifting kd's bits left by 52 keeps k mod 2¹²,
    // and adding that to y's bits adds k to its exponent.
    f64::from_bits(y.to_bits().wrapping_add(kd.to_bits() << 52))
}

/// Log-gamma via the Lanczos approximation (g = 7, n = 9 coefficients).
///
/// Accurate to ~15 significant digits for positive arguments; the
/// reflection formula handles the rest of the real line (excluding poles).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1−x) = π / sin(πx).
        let s = (std::f64::consts::PI * x).sin();
        std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// The error function `erf(x)`, accurate to near machine precision.
///
/// Computed through the regularized lower incomplete gamma function:
/// `erf(x) = sgn(x) · P(1/2, x²)`, evaluated by series expansion for small
/// arguments and by Lentz's continued fraction for large ones.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// For positive `x` this is computed as `Q(1/2, x²)` directly, so it keeps
/// full relative precision deep into the tail (where `1 − erf(x)` would
/// cancel catastrophically).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a,x) / Γ(a)`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p requires a > 0, x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q requires a > 0, x >= 0");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion for `P(a, x)`, convergent for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Modified Lentz continued fraction for `Q(a, x)`, convergent for
/// `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Standard normal CDF `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Evaluated by the continued fraction (Numerical Recipes `betacf`) with
/// the symmetry transformation for fast convergence; accurate to ~1e-14.
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "betai requires positive shape parameters"
    );
    assert!(
        (0.0..=1.0).contains(&x),
        "betai requires x in [0,1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Modified Lentz continued fraction for the incomplete beta.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Inverse of the regularized incomplete beta in `x`: the `x` with
/// `I_x(a, b) = p`, by bisection (monotone in `x`).
pub fn betai_inv(a: f64, b: f64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "betai_inv requires p in [0,1]");
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if betai(a, b, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Clopper–Pearson exact binomial confidence interval for the success
/// probability after observing `k` successes in `n` trials, at
/// confidence `1 − alpha`. Returns `(lower, upper)`.
pub fn clopper_pearson(k: u64, n: u64, alpha: f64) -> (f64, f64) {
    assert!(n > 0 && k <= n, "clopper_pearson requires 0 ≤ k ≤ n, n > 0");
    assert!((0.0..1.0).contains(&alpha), "alpha must lie in [0,1)");
    let (kf, nf) = (k as f64, n as f64);
    let lower = if k == 0 {
        0.0
    } else {
        betai_inv(kf, nf - kf + 1.0, alpha / 2.0)
    };
    let upper = if k == n {
        1.0
    } else {
        betai_inv(kf + 1.0, nf - kf, 1.0 - alpha / 2.0)
    };
    (lower, upper)
}

/// Binary (Bernoulli) KL divergence `kl(p ‖ q)` in nats.
///
/// `kl(p‖q) = p ln(p/q) + (1−p) ln((1−p)/(1−q))`, with the `0 ln 0 = 0`
/// convention. Returns `+inf` when absolute continuity fails.
pub fn kl_bernoulli(p: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0,1], got {p}");
    assert!((0.0..=1.0).contains(&q), "q must lie in [0,1], got {q}");
    xlogx_over_y(p, q) + xlogx_over_y(1.0 - p, 1.0 - q)
}

/// Upper inverse of the Bernoulli KL: the largest `q ∈ [p, 1]` with
/// `kl(p ‖ q) ≤ c`.
///
/// This is the quantity that turns the Seeger/Maurer PAC-Bayes bound
/// `kl(R̂ ‖ R) ≤ c` into an explicit upper bound on the true risk `R`.
/// Solved by bisection; monotonicity of `q ↦ kl(p‖q)` on `[p, 1]`
/// guarantees convergence.
pub fn kl_bernoulli_inv_upper(p: f64, c: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0,1], got {p}");
    assert!(c >= 0.0, "c must be nonnegative, got {c}");
    if c == 0.0 {
        return p;
    }
    let mut lo = p;
    let mut hi = 1.0;
    // kl(p‖1) = +inf for p < 1, so the root is interior; 60 bisection
    // steps give ~2^-60 resolution.
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p, mid) > c {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Binary entropy `H(p)` in nats.
pub fn binary_entropy(p: f64) -> f64 {
    -xlogy(p, p) - xlogy(1.0 - p, 1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn log_sum_exp_matches_direct_small_values() {
        let xs = [0.1, -0.3, 1.7];
        let direct: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        close(log_sum_exp(&xs), direct, 1e-12);
    }

    #[test]
    fn log_sum_exp_handles_huge_values() {
        let xs = [1000.0, 1000.0];
        close(log_sum_exp(&xs), 1000.0 + LN_2, 1e-9);
        let xs = [-1000.0, -1000.0];
        close(log_sum_exp(&xs), -1000.0 + LN_2, 1e-9);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_in_place_edge_cases_match_log_sum_exp() {
        // Weights that cannot be normalized: the same non-finite value
        // as `log_sum_exp`.
        let empty: [f64; 0] = [];
        for w in [
            &empty[..],
            &[f64::NEG_INFINITY; 7],
            &[1.0, f64::INFINITY],
            &[f64::NAN; 5],
            &[f64::NEG_INFINITY, f64::NAN],
            &[1.0, f64::NAN, 2.0],
        ] {
            let z = softmax_in_place(&mut w.to_vec());
            assert!(!z.is_finite(), "{w:?} normalized to {z}");
            assert_eq!(z.to_bits(), log_sum_exp(w).to_bits(), "{w:?}");
        }
        // Huge magnitudes: the pivot keeps both stable.
        for big in [1000.0, -1000.0] {
            let mut w = [big, big];
            close(softmax_in_place(&mut w), big + LN_2, 1e-9);
            assert_eq!(w, [0.5, 0.5]);
        }
        // One weight: the normalizer is the weight and its probability 1.
        let mut w = [-3.25];
        assert_eq!(softmax_in_place(&mut w).to_bits(), (-3.25f64).to_bits());
        assert_eq!(w, [1.0]);
    }

    /// The two-`exp` fold that `softmax_in_place` replaced, as the
    /// oracle: `log_sum_exp`'s Kahan normalizer `z`, then `exp(wᵢ − z)`.
    fn two_exp_fold(w: &[f64]) -> (f64, Vec<f64>) {
        let z = log_sum_exp(w);
        (z, w.iter().map(|&x| (x - z).exp()).collect())
    }

    /// `exp(wᵢ − m)` as the kernel takes it, written by index. Cell `i`
    /// of the whole-lane body belongs to block `i / 1024`, and the tail
    /// is a block of its own; a block whose every argument is at least
    /// `EXP_NORMAL_MIN` runs `exp_normal_range`, any other `f64::exp`.
    fn blocked_exps(w: &[f64], m: f64) -> Vec<f64> {
        let body = w.len() - w.len() % 4;
        let block = |i: usize| {
            if i < body {
                let start = i / 1024 * 1024;
                start..(start + 1024).min(body)
            } else {
                body..w.len()
            }
        };
        (0..w.len())
            .map(|i| {
                if w[block(i)].iter().all(|&x| x - m >= EXP_NORMAL_MIN) {
                    exp_normal_range(w[i] - m)
                } else {
                    (w[i] - m).exp()
                }
            })
            .collect()
    }

    /// `exp(wᵢ − m)` through `f64::exp` alone, as before the in-crate
    /// kernel.
    fn libm_exps(w: &[f64], m: f64) -> Vec<f64> {
        w.iter().map(|&x| (x - m).exp()).collect()
    }

    /// `softmax_in_place` written by index, given how it takes each
    /// cell's `exp`: the maximum, then cell `i` into lane `i % 4` up to
    /// the last full group of four, the lanes folded
    /// `(l0 + l1) + (l2 + l3)`, the tail added in order, and one division
    /// per cell.
    fn lane_replica(w: &[f64], exps: fn(&[f64], f64) -> Vec<f64>) -> (f64, Vec<f64>) {
        let m = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let e = exps(w, m);
        let body = e.len() - e.len() % 4;
        let mut lanes = [0.0f64; 4];
        for i in 0..body {
            lanes[i % 4] += e[i];
        }
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for &x in &e[body..] {
            s += x;
        }
        (m + s.ln(), e.iter().map(|&x| x / s).collect())
    }

    /// Run the kernel on `w` and pin it: bit for bit to the lane replica
    /// taking each cell's `exp` by `exps`, and within 1e-12 relative of
    /// the two-`exp` oracle in the normalizer and in every cell of at
    /// least 1e-290 (smaller cells within 1e-300 absolute). Returns the
    /// probabilities.
    fn assert_softmax_pinned_to(w: &[f64], exps: fn(&[f64], f64) -> Vec<f64>) -> Vec<f64> {
        let mut probs = w.to_vec();
        let z = softmax_in_place(&mut probs);
        let (rz, replica) = lane_replica(w, exps);
        assert_eq!(z.to_bits(), rz.to_bits(), "len {}: normalizer", w.len());
        for (i, (p, r)) in probs.iter().zip(&replica).enumerate() {
            assert_eq!(p.to_bits(), r.to_bits(), "len {}: cell {i}", w.len());
        }
        let (oz, oracle) = two_exp_fold(w);
        assert!((z - oz).abs() <= 1e-12 * oz.abs().max(1.0), "{z} vs {oz}");
        for (i, (&p, &q)) in probs.iter().zip(&oracle).enumerate() {
            if q >= 1e-290 {
                let rel = (p - q).abs() / q;
                assert!(rel <= 1e-12, "len {}: cell {i}: {p:e} vs {q:e}", w.len());
            } else {
                assert!((p - q).abs() <= 1e-300, "cell {i}: {p:e} vs {q:e}");
            }
        }
        probs
    }

    fn assert_softmax_pinned(w: &[f64]) -> Vec<f64> {
        assert_softmax_pinned_to(w, blocked_exps)
    }

    #[test]
    fn softmax_in_place_matches_the_oracle_and_its_lane_replica() {
        use crate::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(20_120_330);
        // Every lane tail from 1 to 9 cells, one block less one cell, one
        // block, one block and one cell, and four blocks with a tail of 3.
        // Odd rows make about one cell in ten −∞ (probability exactly 0),
        // which sends its block to `f64::exp`; even rows have none, so
        // whole blocks run the in-crate kernel.
        for len in (1..=9).chain([1023, 1024, 1025, 4099]) {
            for row in 0..16 {
                let p_neg_inf = if row % 2 == 0 { 0.0 } else { 0.1 };
                let w: Vec<f64> = (0..len)
                    .map(|_| {
                        if rng.next_f64() < p_neg_inf {
                            f64::NEG_INFINITY
                        } else {
                            rng.next_f64() * 80.0 - 40.0
                        }
                    })
                    .collect();
                if w.iter().all(|&x| x == f64::NEG_INFINITY) {
                    continue;
                }
                let probs = assert_softmax_pinned(&w);
                for (p, x) in probs.iter().zip(&w) {
                    assert_eq!(*p == 0.0, *x == f64::NEG_INFINITY, "{x} gave {p}");
                }
                let total: f64 = probs.iter().sum();
                assert!((total - 1.0).abs() <= 1e-12, "len {len}: sum {total}");
            }
        }
    }

    #[test]
    fn softmax_in_place_underflows_cells_beyond_the_exp_range() {
        use crate::rng::{Rng, Xoshiro256};
        // Log weights spread over 800 > 745 nats: the cells more than
        // ~745 below the maximum underflow to exactly 0, and the rest
        // still normalize.
        let mut rng = Xoshiro256::seed_from(1989);
        let w: Vec<f64> = (0..4099).map(|_| -800.0 * rng.next_f64()).collect();
        let probs = assert_softmax_pinned(&w);
        let zeros = probs.iter().filter(|&&p| p == 0.0).count();
        assert!(
            zeros > 0 && zeros < probs.len(),
            "{zeros} cells underflowed"
        );
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() <= 1e-12, "sum {total}");
    }

    /// Log weights whose arguments `wᵢ − max` all lie in `(−15, 0]`:
    /// four whole blocks and a tail of 3, every one of them in range.
    fn in_range_weights() -> Vec<f64> {
        (0..4099)
            .map(|i| ((i * 37) % 101) as f64 / 7.0 - 6.0)
            .collect()
    }

    #[test]
    fn a_block_with_one_argument_out_of_range_runs_libm_on_every_cell() {
        let base = in_range_weights();
        let m = base.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let kernel: Vec<f64> = base.iter().map(|&x| exp_normal_range(x - m)).collect();
        let libm = libm_exps(&base, m);
        let differs = |r: std::ops::Range<usize>| r.filter(|&i| kernel[i] != libm[i]).count();
        // Each block has cells where the two differ in the last bit, so
        // the pins below tell one from the other.
        for r in [0..1024, 1024..2048, 2048..3072, 3072..4096] {
            assert!(differs(r) > 0);
        }
        assert_softmax_pinned_to(&base, |w, m| {
            w.iter().map(|&x| exp_normal_range(x - m)).collect()
        });
        // One argument just below the bound (block 1), a −∞ (block 2), and
        // one in the tail: each of those blocks, and only those, runs
        // `f64::exp` on every cell.
        let below = m + EXP_NORMAL_MIN - 0.25;
        for (at, x, libm_block) in [
            (1500, below, 1024..2048),
            (2100, f64::NEG_INFINITY, 2048..3072),
            (4097, below, 4096..4099),
        ] {
            let mut w = base.clone();
            w[at] = x;
            let exps = blocked_exps(&w, m);
            for (i, (&e, &x)) in exps.iter().zip(&w).enumerate() {
                let want = if libm_block.contains(&i) {
                    (x - m).exp()
                } else {
                    exp_normal_range(x - m)
                };
                assert_eq!(e.to_bits(), want.to_bits(), "cell {i}, {x} at {at}");
            }
            assert_softmax_pinned(&w);
        }
    }

    #[test]
    fn a_nan_beside_finite_weights_keeps_the_normalizer_nan() {
        // In a body block and in the tail; the max pass passes over it.
        for at in [0, 1500, 4096, 4098] {
            let mut w = in_range_weights();
            w[at] = f64::NAN;
            let z = softmax_in_place(&mut w);
            assert!(z.is_nan(), "NaN at {at} normalized to {z}");
        }
    }

    #[test]
    fn a_gibbs_row_that_mostly_underflows_keeps_libm_bits() {
        use crate::rng::{Rng, Xoshiro256};
        // A Gibbs row at λ = 2000: uniform prior weights `ln(1/n) − λ·r`
        // over risks r in [0, 1). About two arguments in three lie below
        // −708, so every block, the tail included, holds one and runs
        // `f64::exp`: the row is bit for bit the kernel that took
        // `f64::exp` for every cell.
        let mut rng = Xoshiro256::seed_from(2_000);
        for len in [1023, 1024, 1025, 4099] {
            let ln_p = (1.0 / len as f64).ln();
            let w: Vec<f64> = (0..len).map(|_| ln_p - 2000.0 * rng.next_f64()).collect();
            let m = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let body = len - len % 4;
            let blocks = (0..body).step_by(1024).map(|b| b..(b + 1024).min(body));
            for block in blocks
                .chain(std::iter::once(body..len))
                .filter(|b| !b.is_empty())
            {
                let low = w[block.clone()].iter().any(|&x| x - m < EXP_NORMAL_MIN);
                assert!(low, "len {len}: block {block:?} is all in range");
            }
            let probs = assert_softmax_pinned_to(&w, libm_exps);
            let zeros = probs.iter().filter(|&&p| p == 0.0).count();
            assert!(2 * zeros > len, "len {len}: {zeros} cells underflowed");
        }
    }

    #[test]
    fn log_add_exp_agrees_with_log_sum_exp() {
        for (a, b) in [
            (0.0, 0.0),
            (-5.0, 3.0),
            (700.0, 710.0),
            (f64::NEG_INFINITY, 2.0),
        ] {
            close(log_add_exp(a, b), log_sum_exp(&[a, b]), 1e-12);
        }
    }

    #[test]
    fn logistic_symmetry_and_tails() {
        close(logistic(0.0), 0.5, 1e-15);
        close(logistic(3.0) + logistic(-3.0), 1.0, 1e-12);
        assert!(logistic(-800.0) >= 0.0);
        assert!(logistic(800.0) <= 1.0);
        close(logistic(800.0), 1.0, 1e-12);
    }

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for x in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            close(log1p_exp(x), (1.0 + f64::exp(x)).ln(), 1e-10);
        }
        // Overflow-safe at large x: log(1+e^x) ≈ x.
        close(log1p_exp(1000.0), 1000.0, 1e-9);
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24.0_f64.ln(), 1e-10); // Γ(5) = 4! = 24
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        // Γ(10.3) from an independent computation.
        close(ln_gamma(10.3), 13.482_036_786_138_36, 1e-9);
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-12);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
        // erfc keeps relative precision deep in the tail.
        let e5 = erfc(5.0);
        assert!(
            (e5 / 1.537_459_794_428_035e-12 - 1.0).abs() < 1e-9,
            "erfc(5)={e5}"
        );
    }

    #[test]
    fn std_normal_cdf_quartiles() {
        close(std_normal_cdf(0.0), 0.5, 1e-9);
        close(std_normal_cdf(1.959_964), 0.975, 1e-5);
        close(std_normal_cdf(-1.959_964), 0.025, 1e-5);
    }

    #[test]
    fn betai_known_values() {
        // I_x(1, 1) = x (uniform CDF).
        close(betai(1.0, 1.0, 0.3), 0.3, 1e-12);
        // I_x(2, 1) = x² ; I_x(1, 2) = 1 − (1−x)².
        close(betai(2.0, 1.0, 0.5), 0.25, 1e-12);
        close(betai(1.0, 2.0, 0.5), 0.75, 1e-12);
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
        close(betai(3.2, 1.7, 0.4), 1.0 - betai(1.7, 3.2, 0.6), 1e-12);
        // Edges.
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
        // Binomial-CDF identity: P[Bin(n,p) ≥ k] = I_p(k, n−k+1).
        // n=10, p=0.3, k=4: complement of CDF(3) = 1 − 0.6496 ≈ 0.3504.
        close(betai(4.0, 7.0, 0.3), 0.350_388_9, 1e-6);
    }

    #[test]
    fn betai_inv_round_trips() {
        for (a, b) in [(1.0, 1.0), (2.5, 4.0), (10.0, 3.0)] {
            for p in [0.01, 0.3, 0.7, 0.99] {
                let x = betai_inv(a, b, p);
                close(betai(a, b, x), p, 1e-9);
            }
        }
        assert_eq!(betai_inv(2.0, 2.0, 0.0), 0.0);
        assert_eq!(betai_inv(2.0, 2.0, 1.0), 1.0);
    }

    #[test]
    fn clopper_pearson_known_interval() {
        // k=0: lower is exactly 0, upper = 1 − (α/2)^{1/n}.
        let (lo, hi) = clopper_pearson(0, 20, 0.05);
        assert_eq!(lo, 0.0);
        close(hi, 1.0 - (0.025f64).powf(1.0 / 20.0), 1e-9);
        // k=n mirrors it.
        let (lo, hi) = clopper_pearson(20, 20, 0.05);
        assert_eq!(hi, 1.0);
        close(lo, (0.025f64).powf(1.0 / 20.0), 1e-9);
        // Interval brackets the MLE and shrinks with n.
        let (lo1, hi1) = clopper_pearson(30, 100, 0.05);
        assert!(lo1 < 0.3 && 0.3 < hi1);
        let (lo2, hi2) = clopper_pearson(3000, 10_000, 0.05);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn clopper_pearson_coverage_monte_carlo() {
        // Coverage of the 95% interval must be ≥ 95% (it is conservative).
        use crate::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(2024);
        let p_true = 0.37;
        let n = 120u64;
        let trials = 2000;
        let mut covered = 0;
        for _ in 0..trials {
            let k = (0..n).filter(|_| rng.next_bool(p_true)).count() as u64;
            let (lo, hi) = clopper_pearson(k, n, 0.05);
            if lo <= p_true && p_true <= hi {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(coverage >= 0.95, "coverage {coverage}");
    }

    #[test]
    fn kl_bernoulli_properties() {
        close(kl_bernoulli(0.3, 0.3), 0.0, 1e-15);
        assert!(kl_bernoulli(0.2, 0.7) > 0.0);
        assert_eq!(kl_bernoulli(0.5, 0.0), f64::INFINITY);
        assert_eq!(kl_bernoulli(0.5, 1.0), f64::INFINITY);
        // Endpoint conventions: kl(0‖q) = -ln(1-q), kl(1‖q) = -ln q.
        close(kl_bernoulli(0.0, 0.4), -(0.6_f64.ln()), 1e-12);
        close(kl_bernoulli(1.0, 0.4), -(0.4_f64.ln()), 1e-12);
    }

    #[test]
    fn kl_inverse_round_trip() {
        for p in [0.0, 0.1, 0.5, 0.9] {
            for c in [1e-4, 0.01, 0.3, 2.0] {
                let q = kl_bernoulli_inv_upper(p, c);
                assert!(q >= p);
                close(kl_bernoulli(p, q), c, 1e-6);
            }
        }
        // c = 0 returns p itself.
        close(kl_bernoulli_inv_upper(0.3, 0.0), 0.3, 1e-15);
    }

    #[test]
    fn binary_entropy_peak_and_edges() {
        close(binary_entropy(0.5), LN_2, 1e-12);
        close(binary_entropy(0.0), 0.0, 1e-15);
        close(binary_entropy(1.0), 0.0, 1e-15);
        assert!(binary_entropy(0.5) > binary_entropy(0.1));
    }

    #[test]
    fn kahan_sum_beats_naive_summation() {
        // Classic cancellation: naive f64 summation returns 0.
        let terms = [1e16, 1.0, -1e16];
        assert_eq!(terms.iter().sum::<f64>(), 0.0);
        assert_eq!(kahan_sum(terms.iter().copied()), 1.0);
        // Small terms riding on a huge offset that later cancels: naive
        // summation loses each small term's low bits against 1e10.
        let mut xs = vec![1e10];
        xs.extend(std::iter::repeat_n(0.123, 10_000));
        xs.push(-1e10);
        let want = 0.123 * 10_000.0;
        let got = kahan_sum(xs.iter().copied());
        let naive: f64 = xs.iter().sum();
        assert!((got - want).abs() < 1e-9, "kahan {got} vs exact {want}");
        assert!(
            (naive - want).abs() > (got - want).abs(),
            "naive {naive} should be worse than kahan {got}"
        );
        // Streaming API and FromIterator agree.
        let mut acc = KahanSum::new();
        acc.extend(xs.iter().copied());
        assert_eq!(acc.value(), got);
        // Non-finite terms propagate instead of vanishing.
        assert!(kahan_sum([1.0, f64::NAN]).is_nan());
        assert_eq!(kahan_sum([1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(kahan_sum(std::iter::empty()), 0.0);
    }

    /// The map that orders doubles as integers (both zeros map to 0),
    /// and its inverse.
    fn ordered(v: f64) -> i64 {
        let b = v.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    }

    fn from_ordered(o: i64) -> f64 {
        f64::from_bits(if o < 0 { i64::MIN - o } else { o } as u64)
    }

    /// Distance in ulps between two finite doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        ordered(a).abs_diff(ordered(b))
    }

    /// The `2·n + 1` doubles from `n` below `x` to `n` above it.
    fn walk(x: f64, n: i64) -> impl Iterator<Item = f64> {
        (-n..=n).map(move |i| from_ordered(ordered(x) + i))
    }

    fn assert_ln_within_one_ulp(x: f64) {
        let (got, want) = (ln_positive_normal(x), x.ln());
        assert!(
            ulps(got, want) <= 1,
            "ln({x:e}) = {got:e}, libm {want:e}: {} ulps",
            ulps(got, want)
        );
    }

    #[test]
    fn ln_positive_normal_is_within_one_ulp_in_every_binade() {
        use crate::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(20_120_330);
        // 2046 binades × 512 random mantissas: every biased exponent
        // from 1 (f64::MIN_POSITIVE) to 2046 (f64::MAX).
        for exp in 1u64..=2046 {
            for _ in 0..512 {
                let mantissa = rng.next_u64() >> 12;
                assert_ln_within_one_ulp(f64::from_bits(exp << 52 | mantissa));
            }
        }
        // Dense sweep of the neighbourhood of 1, where the result is
        // small and only `f` and `s` carry it: every double within 2¹⁶
        // ulps on either side, then 2¹⁶ steps out to 1 ± 2⁻⁴.
        let mut up = 1.0f64;
        let mut down = 1.0f64;
        for _ in 0..(1 << 16) {
            up = f64::from_bits(up.to_bits() + 1);
            down = f64::from_bits(down.to_bits() - 1);
            assert_ln_within_one_ulp(up);
            assert_ln_within_one_ulp(down);
        }
        for i in 1..=(1 << 16) {
            let d = f64::from(i) * 2f64.powi(-20);
            assert_ln_within_one_ulp(1.0 + d);
            assert_ln_within_one_ulp(1.0 - d / 2.0);
        }
        // The edges of the domain and of the reduction interval.
        let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
        for x in [
            f64::MIN_POSITIVE,
            f64::MAX,
            sqrt_half,
            f64::from_bits(sqrt_half.to_bits() - 1),
            std::f64::consts::SQRT_2,
            f64::from_bits(std::f64::consts::SQRT_2.to_bits() - 1),
            0.5,
            2.0,
            std::f64::consts::E,
        ] {
            assert_ln_within_one_ulp(x);
        }
    }

    #[test]
    fn ln_positive_normal_of_one_is_exactly_zero() {
        assert_eq!(ln_positive_normal(1.0).to_bits(), 0.0f64.to_bits());
        // Powers of two reduce to exactly 1 and leave only k·ln 2.
        for k in -1022..=1023 {
            assert_ln_within_one_ulp(2f64.powi(k));
        }
    }

    fn assert_exp_within_one_ulp(x: f64) {
        let (got, want) = (exp_normal_range(x), x.exp());
        assert!(
            ulps(got, want) <= 1 && got.is_normal(),
            "exp({x:e}) = {got:e}, libm {want:e}: {} ulps",
            ulps(got, want)
        );
    }

    #[test]
    fn exp_normal_range_is_within_one_ulp_over_its_domain() {
        use crate::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(20_120_330);
        // 10⁷ arguments spread uniformly over [EXP_NORMAL_MIN, 709].
        for _ in 0..10_000_000 {
            assert_exp_within_one_ulp(EXP_NORMAL_MIN + (709.0 - EXP_NORMAL_MIN) * rng.next_f64());
        }
        // 4096 doubles on each side of 0, where the reduction leaves x as
        // it is, and of the domain's lower end.
        for x in walk(0.0, 4096).chain(walk(EXP_NORMAL_MIN, 4096)) {
            assert_exp_within_one_ulp(x);
        }
        // Around x = (k + ½)·ln 2, where the rounding of x/ln 2 flips
        // between k and k + 1 and |r| is largest.
        for k in (-1021..=1022).step_by(7).chain([1022]) {
            for x in walk((f64::from(k) + 0.5) * LN_2, 2048) {
                assert_exp_within_one_ulp(x);
            }
        }
    }

    #[test]
    fn exp_normal_range_bound_follows_from_the_reduction() {
        // k = round(x/ln 2) is −1021 at the bound and on both sides of it,
        // and stays above −1022 up to x/ln 2 = −1021.5.
        let inv_ln2 = f64::from_bits(0x3ff7_1547_652b_82fe);
        for x in walk(EXP_NORMAL_MIN, 4096) {
            assert_eq!((x * inv_ln2).round(), -1021.0, "{x}");
            assert!(x > -1021.5 * LN_2, "{x}");
        }
        // ln(f64::MIN_POSITIVE) lies past the bound: there k = −1022, and
        // a reduced value below 1 scales to a subnormal the exponent bits
        // cannot hold.
        assert!(f64::MIN_POSITIVE.ln() < -1021.5 * LN_2);
        assert_eq!((f64::MIN_POSITIVE.ln() * inv_ln2).round(), -1022.0);
    }

    #[test]
    fn exp_normal_range_of_zero_is_exactly_one() {
        assert_eq!(exp_normal_range(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp_normal_range(-0.0).to_bits(), 1.0f64.to_bits());
        // Multiples of ln 2 reduce to r ≈ 0 and leave only the scaling.
        for k in -1021..=1022 {
            assert_exp_within_one_ulp(f64::from(k) * LN_2);
        }
    }

    #[test]
    fn xlogy_zero_convention() {
        assert_eq!(xlogy(0.0, 0.0), 0.0);
        assert_eq!(xlogx_over_y(0.0, 0.0), 0.0);
        assert_eq!(xlogx_over_y(0.5, 0.0), f64::INFINITY);
    }
}
