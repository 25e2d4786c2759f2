//! Sorted sets of disjoint byte ranges.
//!
//! TCP keeps three such sets per connection: the receiver's out-of-order
//! store, the sender's SACK scoreboard, and the sender's set of
//! retransmissions still in flight. [`RangeSet`] is the one implementation
//! behind all three.
//!
//! The ranges live in a `Vec` sorted by start, found by binary search
//! (`partition_point`). The sets stay small — a handful of holes per loss
//! episode, a few dozen at most — so a contiguous array beats a B-tree: a
//! lookup touches one or two cache lines, an update shifts a few words, and
//! once the `Vec` has grown to its working size no operation allocates.
//!
//! Invariant, checked after every update in debug builds: every range is
//! non-empty, the ranges are sorted and pairwise disjoint, and
//! [`RangeSet::bytes`] equals the sum of their lengths. A set filled only
//! through [`RangeSet::insert_merge`] additionally never holds two adjacent
//! ranges; removals preserve that, since every remainder borders the gap
//! just cut.

/// Disjoint half-open ranges `[start, end)`, sorted by start, with their
/// byte total.
#[derive(Clone, Debug, Default)]
pub(crate) struct RangeSet {
    ranges: Vec<(u64, u64)>,
    bytes: u64,
}

impl RangeSet {
    /// Total bytes covered.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The lowest range.
    pub(crate) fn first(&self) -> Option<(u64, u64)> {
        self.ranges.first().copied()
    }

    /// The highest range.
    pub(crate) fn last(&self) -> Option<(u64, u64)> {
        self.ranges.last().copied()
    }

    /// The end of the range that starts exactly at `start`.
    pub(crate) fn get(&self, start: u64) -> Option<u64> {
        let i = self.ranges.binary_search_by_key(&start, |&(s, _)| s).ok()?;
        Some(self.ranges[i].1)
    }

    /// The ranges starting at or after `x`, in order.
    pub(crate) fn iter_from(&self, x: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let i = self.ranges.partition_point(|&(s, _)| s < x);
        self.ranges[i..].iter().copied()
    }

    /// The end of the range containing `x`, if any.
    pub(crate) fn containing_end(&self, x: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(s, _)| s <= x);
        let end = self.ranges[..i].last()?.1;
        (end > x).then_some(end)
    }

    /// The lowest range start in `[lo, hi)`.
    pub(crate) fn first_start_in(&self, lo: u64, hi: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(s, _)| s < lo);
        let start = self.ranges.get(i)?.0;
        (start < hi).then_some(start)
    }

    /// Adds `[start, end)`, merging it with every range it overlaps or
    /// touches. Returns the start of the merged range.
    pub(crate) fn insert_merge(&mut self, start: u64, end: u64) -> u64 {
        debug_assert!(start < end, "empty range [{start}, {end})");
        // Ranges i..j overlap or touch [start, end].
        let i = self.ranges.partition_point(|&(_, e)| e < start);
        let j = i + self.ranges[i..].partition_point(|&(s, _)| s <= end);
        let merged = if i == j {
            self.ranges.insert(i, (start, end));
            (start, end)
        } else {
            let merged = (start.min(self.ranges[i].0), end.max(self.ranges[j - 1].1));
            self.bytes -= span_bytes(&self.ranges[i..j]);
            self.ranges[i] = merged;
            self.ranges.drain(i + 1..j);
            merged
        };
        self.bytes += merged.1 - merged.0;
        debug_assert!(
            i == 0 || self.ranges[i - 1].1 < merged.0,
            "merged range touches its predecessor"
        );
        debug_assert!(
            self.ranges.get(i + 1).is_none_or(|&(s, _)| merged.1 < s),
            "merged range touches its successor"
        );
        self.check();
        merged.0
    }

    /// Adds `[start, end)`, which must overlap no range already held. A
    /// range it merely touches stays a separate range.
    pub(crate) fn insert_disjoint(&mut self, start: u64, end: u64) {
        debug_assert!(start < end, "empty range [{start}, {end})");
        let i = self.ranges.partition_point(|&(s, _)| s < start);
        debug_assert!(
            i == 0 || self.ranges[i - 1].1 <= start,
            "[{start}, {end}) overlaps {:?}",
            self.ranges[i - 1]
        );
        debug_assert!(
            self.ranges.get(i).is_none_or(|&(s, _)| end <= s),
            "[{start}, {end}) overlaps {:?}",
            self.ranges[i]
        );
        self.ranges.insert(i, (start, end));
        self.bytes += end - start;
        self.check();
    }

    /// Removes every byte of `[start, end)`, keeping the parts of cut
    /// ranges that lie on either side.
    pub(crate) fn remove(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Ranges i..j intersect [start, end).
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        let j = i + self.ranges[i..].partition_point(|&(s, _)| s < end);
        if i == j {
            return;
        }
        let (first_start, last_end) = (self.ranges[i].0, self.ranges[j - 1].1);
        self.bytes -= span_bytes(&self.ranges[i..j]);
        let left = (first_start < start).then_some((first_start, start));
        let right = (last_end > end).then_some((end, last_end));
        // The remainders take over the first slots of the removed run.
        let mut k = i;
        for r in [left, right].into_iter().flatten() {
            self.bytes += r.1 - r.0;
            if k < j {
                self.ranges[k] = r;
            } else {
                self.ranges.insert(k, r);
            }
            k += 1;
        }
        if k < j {
            self.ranges.drain(k..j);
        }
        self.check();
    }

    /// Removes every byte below `x`.
    pub(crate) fn prune_below(&mut self, x: u64) {
        self.remove(0, x);
    }

    /// Removes and returns the lowest range if it starts at or below `x`.
    pub(crate) fn pop_front_at_or_below(&mut self, x: u64) -> Option<(u64, u64)> {
        let (s, e) = *self.ranges.first().filter(|&&(s, _)| s <= x)?;
        self.ranges.remove(0);
        self.bytes -= e - s;
        self.check();
        Some((s, e))
    }

    pub(crate) fn clear(&mut self) {
        self.ranges.clear();
        self.bytes = 0;
    }

    /// Debug-build check of the invariant in the module docs.
    fn check(&self) {
        if cfg!(debug_assertions) {
            for &(s, e) in &self.ranges {
                debug_assert!(s < e, "empty range [{s}, {e})");
            }
            for w in self.ranges.windows(2) {
                debug_assert!(w[0].1 <= w[1].0, "unsorted or overlapping: {:?}", w);
            }
            debug_assert_eq!(
                span_bytes(&self.ranges),
                self.bytes,
                "byte total out of step"
            );
        }
    }
}

fn span_bytes(ranges: &[(u64, u64)]) -> u64 {
    ranges.iter().map(|&(s, e)| e - s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimRng;

    /// Bytes of the universe the sweep draws ranges from.
    const SPAN: u64 = 96;

    /// The naive model: one owner label per byte (0 = absent). A set filled
    /// by `insert_merge` holds the maximal runs of owned bytes; one filled
    /// by `insert_disjoint` holds the maximal runs of one label, so touching
    /// ranges stay apart.
    struct Model {
        owner: Vec<u32>,
        merged: bool,
        next_label: u32,
    }

    impl Model {
        fn new(merged: bool) -> Model {
            Model {
                owner: vec![0; SPAN as usize],
                merged,
                next_label: 0,
            }
        }

        fn set(&mut self, start: u64, end: u64, label: u32) {
            for b in start..end {
                self.owner[b as usize] = label;
            }
        }

        fn insert(&mut self, start: u64, end: u64) {
            self.next_label += 1;
            self.set(start, end, self.next_label);
        }

        fn ranges(&self) -> Vec<(u64, u64)> {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for (b, &l) in self.owner.iter().enumerate() {
                let b = b as u64;
                if l == 0 {
                    continue;
                }
                let continues = b > 0 && {
                    let prev = self.owner[b as usize - 1];
                    prev != 0 && (self.merged || prev == l)
                };
                match out.last_mut() {
                    Some(r) if continues => r.1 = b + 1,
                    _ => out.push((b, b + 1)),
                }
            }
            out
        }

        fn bytes(&self) -> u64 {
            self.owner.iter().filter(|&&l| l != 0).count() as u64
        }
    }

    /// Structural invariant, checked explicitly so release-mode test runs
    /// (where the set's own `debug_assert`s compile out) check it too.
    fn assert_invariant(set: &RangeSet, merged: bool, ctx: &str) {
        let r = &set.ranges;
        assert!(r.iter().all(|&(s, e)| s < e), "{ctx}: empty range in {r:?}");
        for w in r.windows(2) {
            assert!(w[0].1 <= w[1].0, "{ctx}: unsorted or overlapping {r:?}");
            assert!(
                !merged || w[0].1 < w[1].0,
                "{ctx}: adjacent ranges not merged {r:?}"
            );
        }
        assert_eq!(set.bytes(), span_bytes(r), "{ctx}: byte total");
    }

    fn assert_lookups(set: &RangeSet, want: &[(u64, u64)], rng: &mut SimRng, ctx: &str) {
        assert_eq!(set.iter_from(0).collect::<Vec<_>>(), want, "{ctx}: ranges");
        assert_eq!(set.first(), want.first().copied(), "{ctx}: first");
        assert_eq!(set.last(), want.last().copied(), "{ctx}: last");
        assert_eq!(set.is_empty(), want.is_empty(), "{ctx}: is_empty");
        for _ in 0..4 {
            let x = rng.uniform_u64(0, SPAN + 2);
            let hi = rng.uniform_u64(0, SPAN + 2);
            let containing = want
                .iter()
                .find(|&&(s, e)| s <= x && x < e)
                .map(|&(_, e)| e);
            assert_eq!(
                set.containing_end(x),
                containing,
                "{ctx}: containing_end({x})"
            );
            let exact = want.iter().find(|&&(s, _)| s == x).map(|&(_, e)| e);
            assert_eq!(set.get(x), exact, "{ctx}: get({x})");
            let first_in = want.iter().map(|&(s, _)| s).find(|&s| x <= s && s < hi);
            assert_eq!(
                set.first_start_in(x, hi),
                first_in,
                "{ctx}: first_start_in({x}, {hi})"
            );
            let from: Vec<_> = want.iter().copied().filter(|&(s, _)| s >= x).collect();
            assert_eq!(
                set.iter_from(x).collect::<Vec<_>>(),
                from,
                "{ctx}: iter_from({x})"
            );
        }
    }

    /// A random range clipped to the universe, possibly empty.
    fn draw(rng: &mut SimRng) -> (u64, u64) {
        let start = rng.uniform_u64(0, SPAN);
        let len = rng.uniform_u64(0, 24);
        (start, (start + len).min(SPAN))
    }

    /// A random non-empty range overlapping nothing the model holds.
    fn draw_free(model: &Model, rng: &mut SimRng) -> Option<(u64, u64)> {
        let start = rng.uniform_u64(0, SPAN);
        if model.owner[start as usize] != 0 {
            return None;
        }
        let max = rng.uniform_u64(1, 24);
        let mut end = start + 1;
        while end < SPAN && end - start < max && model.owner[end as usize] == 0 {
            end += 1;
        }
        Some((start, end))
    }

    fn sweep(merged: bool) {
        for seed in 0..200u64 {
            let mut rng = SimRng::new(0x4A_5E70_0000 + seed + if merged { 0 } else { 1 << 20 });
            let mut set = RangeSet::default();
            let mut model = Model::new(merged);
            for step in 0..120 {
                let op = rng.choose_index(6);
                let ctx = format!("merged={merged} seed {seed} step {step} op {op}");
                match op {
                    0 | 1 if merged => {
                        let (s, e) = draw(&mut rng);
                        if s < e {
                            let got = set.insert_merge(s, e);
                            model.insert(s, e);
                            let want = model
                                .ranges()
                                .into_iter()
                                .find(|&(rs, re)| rs <= s && e <= re);
                            assert_eq!(Some(got), want.map(|r| r.0), "{ctx}: merged start");
                        }
                    }
                    0 | 1 => {
                        if let Some((s, e)) = draw_free(&model, &mut rng) {
                            set.insert_disjoint(s, e);
                            model.insert(s, e);
                        }
                    }
                    2 => {
                        let (s, e) = draw(&mut rng);
                        set.remove(s, e);
                        model.set(s, e, 0);
                    }
                    3 => {
                        let x = rng.uniform_u64(0, SPAN / 2);
                        set.prune_below(x);
                        model.set(0, x, 0);
                    }
                    4 => {
                        let x = rng.uniform_u64(0, SPAN);
                        let want = model.ranges().first().copied().filter(|&(s, _)| s <= x);
                        assert_eq!(set.pop_front_at_or_below(x), want, "{ctx}: pop");
                        if let Some((s, e)) = want {
                            model.set(s, e, 0);
                        }
                    }
                    _ => {
                        if rng.choose_index(8) == 0 {
                            set.clear();
                            model.set(0, SPAN, 0);
                        }
                    }
                }
                assert_invariant(&set, merged, &ctx);
                assert_eq!(set.bytes(), model.bytes(), "{ctx}: bytes vs model");
                assert_lookups(&set, &model.ranges(), &mut rng, &ctx);
            }
        }
    }

    /// Seeded sweep of random op sequences on a merging set, checked
    /// against the byte-bitmap model after every op.
    #[test]
    fn merging_set_matches_bitmap_oracle() {
        sweep(true);
    }

    /// The same sweep on a set filled by `insert_disjoint`, where touching
    /// ranges stay separate.
    #[test]
    fn disjoint_set_matches_bitmap_oracle() {
        sweep(false);
    }

    #[test]
    fn remove_keeps_both_remainders() {
        let mut set = RangeSet::default();
        set.insert_disjoint(10, 20);
        set.insert_disjoint(20, 30);
        set.remove(15, 25);
        assert_eq!(set.iter_from(0).collect::<Vec<_>>(), [(10, 15), (25, 30)]);
        set.insert_disjoint(40, 50);
        set.remove(42, 44);
        assert_eq!(
            set.iter_from(0).collect::<Vec<_>>(),
            [(10, 15), (25, 30), (40, 42), (44, 50)]
        );
        assert_eq!(set.bytes(), 5 + 5 + 2 + 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlaps")]
    fn insert_disjoint_rejects_a_shared_start() {
        let mut set = RangeSet::default();
        set.insert_disjoint(100, 200);
        set.insert_disjoint(100, 150);
    }
}
