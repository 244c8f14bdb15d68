//! The IEEE 754 total order on `f64`, implemented once for every rank
//! structure in the workspace.
//!
//! [`f64::total_cmp`] orders every bit pattern:
//! `−NaN < −∞ < … < −0.0 < +0.0 < … < +∞ < +NaN`, and two values compare
//! equal only when their bits are identical. A sorted run under it is
//! therefore unique: any correct sort or merge produces the same bits, so
//! a faster kernel can replace a slower one without moving a single
//! observable answer.
//!
//! Both kernels here work on order-preserving `u64` keys, which
//! compare with one integer instruction instead of the comparator's
//! sign fix-ups on both operands.
//!
//! ```
//! use dplearn_numerics::order::{merge_total, sort_total};
//!
//! let mut a = vec![2.0, f64::NAN, -0.0, 0.0, -1.0];
//! sort_total(&mut a);
//! let b = [-f64::INFINITY, 1.5];
//! let merged = merge_total(&a, &b);
//! let bits: Vec<u64> = merged.iter().map(|v| v.to_bits()).collect();
//! let mut expect = vec![2.0, f64::NAN, -0.0, 0.0, -1.0, -f64::INFINITY, 1.5];
//! expect.sort_by(f64::total_cmp);
//! assert_eq!(bits, expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
//! ```

/// The order-preserving key of `x`: `total_order_key(a) < total_order_key(b)`
/// exactly when `a.total_cmp(&b)` is `Less`.
///
/// Negative values flip every bit, so larger magnitudes sort first;
/// non-negative values flip only the sign bit, so they sort after every
/// negative one.
#[inline]
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The value whose [`total_order_key`] is `key` (its exact inverse).
#[inline]
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ (!(((key as i64) >> 63) as u64) | (1 << 63)))
}

/// Sort `xs` ascending under [`f64::total_cmp`].
///
/// The slice is rewritten to its keys in place, sorted as integers, and
/// rewritten back, so the sort allocates nothing. The result is
/// bit-identical to `xs.sort_by(f64::total_cmp)`.
pub fn sort_total(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = f64::from_bits(total_order_key(*x));
    }
    xs.sort_unstable_by_key(|x| x.to_bits());
    for x in xs.iter_mut() {
        *x = from_total_order_key(x.to_bits());
    }
}

/// Merge two runs sorted under [`f64::total_cmp`] into one sorted run,
/// bit-identical to sorting their concatenation.
pub fn merge_total(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a, b);
    while let (Some((&x, rest_a)), Some((&y, rest_b))) = (a.split_first(), b.split_first()) {
        if total_order_key(y) < total_order_key(x) {
            out.push(y);
            b = rest_b;
        } else {
            out.push(x);
            a = rest_a;
        }
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
    ];

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        let mut values = EDGES.to_vec();
        values.extend([1.0, -1.0, 0.5, -2.5, 1e300, -1e-300]);
        values.push(f64::from_bits(0x7FF0_0000_0000_0001)); // signalling NaN
        values.push(f64::from_bits(0xFFF8_0000_0000_00AB)); // payload −NaN
        for &a in &values {
            assert_eq!(
                from_total_order_key(total_order_key(a)).to_bits(),
                a.to_bits()
            );
            for &b in &values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn sort_and_merge_match_total_cmp_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 2, 7, 64, 1000] {
            let mut xs: Vec<f64> = (0..len)
                .map(|i| match next() % 4 {
                    0 => EDGES[i % EDGES.len()],
                    1 => f64::from_bits(next()),
                    _ => (next() % 17) as f64 - 8.0,
                })
                .collect();
            let mut reference = xs.clone();
            reference.sort_by(f64::total_cmp);
            let (mut a, mut b) = (xs[..len / 3].to_vec(), xs[len / 3..].to_vec());
            sort_total(&mut xs);
            assert_eq!(bits(&xs), bits(&reference), "sort at len {len}");

            a.sort_by(f64::total_cmp);
            b.sort_by(f64::total_cmp);
            assert_eq!(
                bits(&merge_total(&a, &b)),
                bits(&reference),
                "merge at len {len}"
            );
            assert_eq!(
                bits(&merge_total(&b, &a)),
                bits(&reference),
                "merge at len {len}"
            );
        }
    }
}
