//! Seeded inputs and the single-node reference every output is checked
//! against.
//!
//! Allreduce inputs are integer-valued doubles of small magnitude, so every
//! partial sum is exact and the reference sum is bit-identical to the
//! runtime's result in any reduction order.

use bgp_sim::Rng;

/// Input magnitude bound: `|x| < 1024`, so a sum over any member count
/// this benchmark uses stays far inside f64's exact-integer range.
const MAX_ABS: u64 = 1024;

/// A seeded byte payload of `len` bytes.
pub fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One allreduce: an input vector per member and their exact sum.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Inputs in global member order.
    pub inputs: Vec<Vec<f64>>,
    /// The single-node reference result.
    pub sum: Vec<f64>,
}

impl Reduction {
    /// Seeded integer-valued inputs for `members` members of `count` doubles.
    pub fn new(rng: &mut Rng, members: usize, count: usize) -> Self {
        let inputs: Vec<Vec<f64>> = (0..members)
            .map(|_| {
                (0..count)
                    .map(|_| rng.range_u64(0, 2 * MAX_ABS) as f64 - MAX_ABS as f64)
                    .collect()
            })
            .collect();
        Reduction {
            sum: reference_sum(&inputs),
            inputs,
        }
    }
}

/// The element-wise sum of `inputs`, computed on one node in member order.
pub fn reference_sum(inputs: &[Vec<f64>]) -> Vec<f64> {
    let mut sum = vec![0.0; inputs.first().map_or(0, Vec::len)];
    for input in inputs {
        for (s, x) in sum.iter_mut().zip(input) {
            *s += x;
        }
    }
    sum
}

/// Every one of `members` members received exactly `expected`.
pub fn bcast_ok(expected: &[u8], got: &[Vec<u8>], members: usize) -> bool {
    got.len() == members && got.iter().all(|g| g[..] == *expected)
}

/// Every one of `members` members holds the reference sum, bit for bit.
pub fn allreduce_ok(reference: &[f64], got: &[Vec<f64>], members: usize) -> bool {
    got.len() == members
        && got.iter().all(|g| {
            g.len() == reference.len()
                && g.iter()
                    .zip(reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tally;

    #[test]
    fn a_corrupted_byte_or_value_is_counted_as_failed() {
        let mut rng = Rng::new(7);
        let expected = payload(&mut rng, 1024);
        let mut got = vec![expected.clone(); 4];
        let mut tally = Tally::default();
        tally.record(bcast_ok(&expected, &got, 4));
        got[3][1023] ^= 1;
        tally.record(bcast_ok(&expected, &got, 4));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );

        let r = Reduction::new(&mut rng, 4, 128);
        let mut out = vec![r.sum.clone(); 4];
        tally.record(allreduce_ok(&r.sum, &out, 4));
        out[0][127] += 1.0;
        tally.record(allreduce_ok(&r.sum, &out, 4));
        // A short or missing member result is a mismatch too.
        tally.record(allreduce_ok(&r.sum, &out[..3], 4));
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
    }

    #[test]
    fn reference_sum_is_order_independent_for_integer_inputs() {
        let mut rng = Rng::new(3);
        let r = Reduction::new(&mut rng, 4, 256);
        let mut reversed = r.inputs.clone();
        reversed.reverse();
        assert_eq!(reference_sum(&reversed), r.sum);
        assert!(r.sum.iter().all(|x| x.fract() == 0.0));
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        assert_eq!(
            payload(&mut Rng::new(1), 100),
            payload(&mut Rng::new(1), 100)
        );
        assert_ne!(
            payload(&mut Rng::new(1), 100),
            payload(&mut Rng::new(2), 100)
        );
    }
}
