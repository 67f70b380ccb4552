//! The list operators of §4.2: the merge operator `\`, operation views,
//! suffix tests and trimming.
//!
//! > *The merge operator, written `\`, takes two lists, a suffix and a
//! > prefix, and returns the list constructed by prepending to the suffix
//! > all the entries in the prefix but not in suffix, preserving their
//! > relative order in the prefix:*
//! >
//! > `Λ \ h = h`
//! > `(p · g) \ h = if p ∈ h then g \ h else p · (g \ h)`
//!
//! The linearizability criterion for fetch-and-cons histories (§4.2): all
//! views are *coherent* (pairwise, one is a suffix of the other), and
//! real-time order implies the suffix relation.

/// Merge `prefix \ suffix`: prepend to `suffix` every entry of `prefix`
/// not already in `suffix`, preserving the prefix's relative order.
///
/// # Example
///
/// ```
/// use waitfree_core::universal::merge::merge;
/// assert_eq!(merge(&[3, 2, 1], &[2, 0]), vec![3, 1, 2, 0]);
/// assert_eq!(merge(&[], &[5]), vec![5]);
/// assert_eq!(merge(&[5], &[]), vec![5]);
/// ```
#[must_use]
pub fn merge<T: PartialEq + Clone>(prefix: &[T], suffix: &[T]) -> Vec<T> {
    let mut out: Vec<T> = prefix
        .iter()
        .filter(|p| !suffix.contains(p))
        .cloned()
        .collect();
    out.extend_from_slice(suffix);
    out
}

/// The *view* of a fetch-and-cons operation: its argument prepended to its
/// result.
///
/// ```
/// use waitfree_core::universal::merge::view;
/// assert_eq!(view(9, &[2, 1]), vec![9, 2, 1]);
/// ```
#[must_use]
pub fn view<T: Clone>(arg: T, result: &[T]) -> Vec<T> {
    let mut v = Vec::with_capacity(result.len() + 1);
    v.push(arg);
    v.extend_from_slice(result);
    v
}

/// Whether `a` is a suffix of `b`.
///
/// ```
/// use waitfree_core::universal::merge::is_suffix;
/// assert!(is_suffix(&[2, 3], &[1, 2, 3]));
/// assert!(is_suffix::<i32>(&[], &[1]));
/// assert!(!is_suffix(&[1, 2], &[1, 2, 3]));
/// ```
#[must_use]
pub fn is_suffix<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() <= b.len() && b[b.len() - a.len()..] == *a
}

/// Whether a set of views is *coherent*: for any two, one is a suffix of
/// the other (§4.2's linearizability condition (1)).
#[must_use]
pub fn coherent<T: PartialEq>(views: &[Vec<T>]) -> bool {
    for (i, a) in views.iter().enumerate() {
        for b in &views[i + 1..] {
            if !is_suffix(a, b) && !is_suffix(b, a) {
                return false;
            }
        }
    }
    true
}

/// The suffix strictly following the first entry matching `pred`
/// (the paper's `trim`: "the suffix following its own most recent
/// operation"), or `None` if no entry matches.
///
/// ```
/// use waitfree_core::universal::merge::trim_after;
/// let log = [30, 20, 10];
/// assert_eq!(trim_after(&log, |&x| x == 20), Some(&log[2..]));
/// assert_eq!(trim_after(&log, |&x| x == 99), None);
/// ```
pub fn trim_after<T, F: FnMut(&T) -> bool>(list: &[T], pred: F) -> Option<&[T]> {
    list.iter().position(pred).map(|i| &list[i + 1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_base_cases_match_the_definition() {
        // Λ \ h = h
        assert_eq!(merge::<i32>(&[], &[1, 2]), vec![1, 2]);
        // (p·g) \ h with p ∈ h drops p
        assert_eq!(merge(&[2, 5], &[2]), vec![5, 2]);
        // with p ∉ h keeps p in front
        assert_eq!(merge(&[7], &[2]), vec![7, 2]);
    }

    #[test]
    fn merge_preserves_prefix_order() {
        assert_eq!(merge(&[4, 3, 2, 1], &[]), vec![4, 3, 2, 1]);
        assert_eq!(merge(&[4, 3, 2, 1], &[3, 1]), vec![4, 2, 3, 1]);
    }

    #[test]
    fn merge_result_always_has_suffix() {
        let suffix = vec![9, 8, 7];
        let m = merge(&[8, 1], &suffix);
        assert!(is_suffix(&suffix, &m));
    }

    #[test]
    fn merge_is_idempotent_on_contained_prefix() {
        let h = vec![1, 2, 3];
        assert_eq!(merge(&[2, 3], &h), h);
    }

    #[test]
    fn coherence_detects_forks() {
        let a = vec![3, 2, 1];
        let b = vec![2, 1];
        let c = vec![9, 1];
        assert!(coherent(&[a.clone(), b.clone()]));
        assert!(!coherent(&[a, b, c]));
    }

    #[test]
    fn empty_view_is_suffix_of_all() {
        assert!(coherent(&[vec![], vec![1], vec![2, 1]]));
    }

    #[test]
    fn trim_after_own_most_recent_operation() {
        // Entries tagged (owner, op); trim finds P1's latest (first in
        // head-first order) entry and returns what follows.
        let log = [(2, 'c'), (1, 'b'), (0, 'a'), (1, 'z')];
        let suffix = trim_after(&log, |e| e.0 == 1).unwrap();
        assert_eq!(suffix, &[(0, 'a'), (1, 'z')]);
    }

    // Randomized property tests over seeded lists (deterministic, offline
    // replacement for the former proptest strategies).
    fn random_list(rng: &mut waitfree_sched::rng::DetRng, max_len: usize, vals: i64) -> Vec<i64> {
        let len = rng.below(max_len + 1);
        (0..len).map(|_| rng.range_i64(0, vals)).collect()
    }

    /// merge(p, s) always ends with s.
    #[test]
    fn prop_merge_keeps_suffix() {
        let mut rng = waitfree_sched::rng::DetRng::new(0x4D45_5247);
        for _ in 0..512 {
            let prefix = random_list(&mut rng, 7, 20);
            let suffix = random_list(&mut rng, 7, 20);
            let m = merge(&prefix, &suffix);
            assert!(is_suffix(&suffix, &m), "prefix {prefix:?} suffix {suffix:?} -> {m:?}");
        }
    }

    /// Entries of the result = entries of suffix plus prefix-only entries.
    #[test]
    fn prop_merge_contains_exactly_union() {
        let mut rng = waitfree_sched::rng::DetRng::new(0x554E_494F);
        for _ in 0..512 {
            let prefix = random_list(&mut rng, 7, 20);
            let suffix = random_list(&mut rng, 7, 20);
            let m = merge(&prefix, &suffix);
            for p in &prefix {
                assert!(m.contains(p));
            }
            for s in &suffix {
                assert!(m.contains(s));
            }
            // No invented entries.
            for x in &m {
                assert!(prefix.contains(x) || suffix.contains(x));
            }
        }
    }

    /// Merging is monotone: a second merge with the same prefix is a no-op
    /// when the suffix already absorbed it.
    #[test]
    fn prop_merge_absorbs() {
        let mut rng = waitfree_sched::rng::DetRng::new(0x4142_534F);
        for _ in 0..512 {
            let prefix = random_list(&mut rng, 5, 10);
            let suffix = random_list(&mut rng, 5, 10);
            let once = merge(&prefix, &suffix);
            let twice = merge(&prefix, &once);
            assert_eq!(once, twice);
        }
    }

    /// is_suffix is a partial order: antisymmetric on distinct lists.
    #[test]
    fn prop_suffix_antisymmetric() {
        let mut rng = waitfree_sched::rng::DetRng::new(0x414E_5449);
        for _ in 0..2048 {
            let a = random_list(&mut rng, 5, 5);
            let b = random_list(&mut rng, 5, 5);
            if is_suffix(&a, &b) && is_suffix(&b, &a) {
                assert_eq!(a, b);
            }
        }
    }
}
