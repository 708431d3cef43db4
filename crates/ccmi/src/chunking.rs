//! Message splitting: colors and pipeline chunks.

/// Split `total` bytes across `n_colors` streams as evenly as possible
/// (first streams take the remainder). Every byte lands in exactly one
/// color; empty colors are allowed for tiny messages.
pub fn color_shares(total: u64, n_colors: usize) -> Vec<u64> {
    assert!(n_colors >= 1, "need at least one color");
    let base = total / n_colors as u64;
    let rem = (total % n_colors as u64) as usize;
    (0..n_colors).map(|i| base + u64::from(i < rem)).collect()
}

/// Split `bytes` into pipeline chunks of `pwidth` (the last chunk may be
/// short). Zero bytes yields no chunks.
pub fn chunk_sizes(bytes: u64, pwidth: u64) -> Vec<u64> {
    assert!(pwidth >= 1, "pipeline width must be positive");
    let mut out = Vec::with_capacity((bytes / pwidth + 1) as usize);
    let mut left = bytes;
    while left > 0 {
        let c = left.min(pwidth);
        out.push(c);
        left -= c;
    }
    out
}

/// A contiguous byte range of the message: `(offset, len)`.
pub type Span = (u64, u64);

/// Split `bytes` starting at `base` into pipeline-chunk spans.
pub fn chunk_spans(base: u64, bytes: u64, pwidth: u64) -> Vec<Span> {
    chunk_sizes(bytes, pwidth)
        .into_iter()
        .scan(base, |off, len| {
            let s = (*off, len);
            *off += len;
            Some(s)
        })
        .collect()
}

/// Per-color spans of the whole message: color `c` owns the contiguous
/// range `[start_c, start_c + share_c)`.
pub fn color_spans(total: u64, n_colors: usize) -> Vec<Span> {
    color_shares(total, n_colors)
        .into_iter()
        .scan(0u64, |off, len| {
            let s = (*off, len);
            *off += len;
            Some(s)
        })
        .collect()
}

/// Check that `spans` form a disjoint, exact cover of `[0, total)`.
/// Consumes and sorts the spans.
pub fn spans_cover_exactly(mut spans: Vec<Span>, total: u64) -> bool {
    sorted_cover(&mut spans, total)
}

/// [`spans_cover_exactly`] over a caller's buffer, which it sorts in place.
pub(crate) fn sorted_cover(spans: &mut [Span], total: u64) -> bool {
    spans.sort_unstable();
    let mut next = 0u64;
    for &(off, len) in spans.iter() {
        if off != next {
            return false; // gap or overlap
        }
        next = off + len;
    }
    next == total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_total() {
        for total in [0u64, 1, 5, 6, 7, 1 << 20, (1 << 20) + 3] {
            let s = color_shares(total, 6);
            assert_eq!(s.len(), 6);
            assert_eq!(s.iter().sum::<u64>(), total);
            // Shares differ by at most one byte.
            let mx = *s.iter().max().unwrap();
            let mn = *s.iter().min().unwrap();
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn shares_single_color() {
        assert_eq!(color_shares(100, 1), vec![100]);
    }

    #[test]
    fn chunks_cover_exactly() {
        for bytes in [0u64, 1, 1023, 1024, 1025, 100_000] {
            let c = chunk_sizes(bytes, 1024);
            assert_eq!(c.iter().sum::<u64>(), bytes);
            assert!(c.iter().all(|&x| (1..=1024).contains(&x)));
            // Only the final chunk may be short.
            for &x in c.iter().rev().skip(1) {
                assert_eq!(x, 1024);
            }
        }
    }

    #[test]
    fn zero_message_has_no_chunks() {
        assert!(chunk_sizes(0, 4096).is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_pwidth_rejected() {
        let _ = chunk_sizes(10, 0);
    }

    #[test]
    fn chunk_spans_are_contiguous_from_base() {
        let spans = chunk_spans(100, 2500, 1000);
        assert_eq!(spans, vec![(100, 1000), (1100, 1000), (2100, 500)]);
        assert!(chunk_spans(0, 0, 16).is_empty());
    }

    #[test]
    fn color_spans_partition_the_message() {
        let spans = color_spans(100, 6);
        assert!(spans_cover_exactly(spans, 100));
        let spans = color_spans(0, 3);
        assert!(spans_cover_exactly(spans, 0));
    }

    #[test]
    fn cover_checker_rejects_gaps_overlaps_and_shortfalls() {
        assert!(spans_cover_exactly(vec![(0, 5), (5, 5)], 10));
        assert!(spans_cover_exactly(vec![(5, 5), (0, 5)], 10)); // order-free
        assert!(!spans_cover_exactly(vec![(0, 5), (6, 4)], 10)); // gap
        assert!(!spans_cover_exactly(vec![(0, 6), (5, 5)], 10)); // overlap
        assert!(!spans_cover_exactly(vec![(0, 5)], 10)); // short
        assert!(!spans_cover_exactly(vec![(0, 5), (5, 6)], 10)); // long
        assert!(spans_cover_exactly(vec![], 0));
    }
}
