//! The flat cell store: row ids counting-sorted into buckets, reused
//! across builds; the Simple Grid's extent path and `twolayer` share it.

use std::ops::{Range, RangeInclusive};

use crate::table::EntryId;

/// Ids counting-sorted into buckets: a count pass, a prefix sum, then a
/// place pass. Bucket `b` is `ids()[slots(b..=b)]`, its ids in the order
/// they were placed, and consecutive buckets are one slice. The Simple
/// Grid's extent path keys rows by the cell of their reference corner;
/// `twolayer` keys rectangle replicas by cell and class, points by home
/// cell and query positions by cell, and writes its coordinate columns at
/// the slots [`BucketSort::place`] returns.
#[derive(Debug, Clone, Default)]
pub struct BucketSort {
    /// `start[b + 1]` is bucket `b`'s next free slot while placing, and
    /// its end once every slot is placed; `start[b]` is then its start.
    start: Vec<usize>,
    ids: Vec<EntryId>,
}

impl BucketSort {
    /// Count pass and prefix sum over `buckets` buckets: `keys` yields the
    /// bucket of every id the place pass will put. Returns the slot count.
    pub fn count(&mut self, buckets: usize, keys: impl Iterator<Item = usize>) -> usize {
        // Counting bucket `b` at `start[b + 2]` leaves its first slot at
        // `start[b + 1]` after the sum, so placing ends with every bucket
        // at `start[b]..start[b + 1]` and no shift.
        self.start.clear();
        self.start.resize(buckets + 2, 0);
        keys.for_each(|b| self.start[b + 2] += 1);
        for b in 2..buckets + 2 {
            self.start[b] += self.start[b - 1];
        }
        let len = self.start[buckets + 1];
        // Exactly: `resize` alone would double the column the first time a
        // fill outgrows every earlier one by a few ids.
        self.ids.reserve_exact(len.saturating_sub(self.ids.len()));
        self.ids.resize(len, 0);
        len
    }

    /// Place pass: put `id` in bucket `b`'s next slot and return the slot.
    /// Call it once per key [`Self::count`] was given.
    #[inline]
    pub fn place(&mut self, b: usize, id: EntryId) -> usize {
        let slot = self.start[b + 1];
        self.start[b + 1] += 1;
        self.ids[slot] = id;
        slot
    }

    /// The slots of the consecutive buckets `buckets`, once placed.
    #[inline]
    pub fn slots(&self, buckets: RangeInclusive<usize>) -> Range<usize> {
        self.start[*buckets.start()]..self.start[*buckets.end() + 1]
    }

    /// The id column, bucket after bucket.
    #[inline]
    pub fn ids(&self) -> &[EntryId] {
        &self.ids
    }

    /// Allocated bytes, the convention of [`crate::index::SpatialIndex::memory_bytes`].
    pub fn allocated_bytes(&self) -> usize {
        self.start.capacity() * std::mem::size_of::<usize>()
            + self.ids.capacity() * std::mem::size_of::<EntryId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_hold_their_ids_in_placing_order_and_consecutive_ones_are_one_slice() {
        let keys = [2usize, 0, 2, 3, 0, 2];
        let mut sort = BucketSort::default();
        assert_eq!(sort.count(5, keys.iter().copied()), keys.len());
        let slots: Vec<usize> = (0..).zip(keys).map(|(id, b)| sort.place(b, id)).collect();
        assert_eq!(slots, [2, 0, 3, 5, 1, 4]);
        let bucket = |b: usize| sort.ids()[sort.slots(b..=b)].to_vec();
        assert_eq!(bucket(0), [1, 4]);
        assert_eq!(bucket(1), [] as [EntryId; 0]);
        assert_eq!(bucket(2), [0, 2, 5]);
        assert_eq!(bucket(3), [3]);
        assert_eq!(bucket(4), [] as [EntryId; 0]);
        assert_eq!(&sort.ids()[sort.slots(1..=3)], [0, 2, 5, 3]);
    }

    #[test]
    fn a_refill_with_fewer_buckets_and_ids_forgets_the_old_ones() {
        let mut sort = BucketSort::default();
        sort.count(8, [7usize, 7, 1].into_iter());
        for (id, b) in [(0, 7), (1, 7), (2, 1)] {
            sort.place(b, id);
        }
        let bytes = sort.allocated_bytes();
        assert_eq!(sort.count(2, [1usize].into_iter()), 1);
        sort.place(1, 9);
        assert_eq!(sort.slots(0..=0), 0..0);
        assert_eq!(&sort.ids()[sort.slots(0..=1)], [9]);
        assert_eq!(
            sort.allocated_bytes(),
            bytes,
            "a smaller refill reallocated"
        );
        assert_eq!(sort.count(0, std::iter::empty()), 0);
        assert!(sort.ids().is_empty());
    }
}
