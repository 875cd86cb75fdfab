//! The FIFO segment buffer, which is also the buffer map it advertises.
//!
//! Each node buffers a sliding window of `B` segments (paper default 600,
//! i.e. 60 s of media). Replacement is FIFO: the window slides forward as
//! newer segments arrive, evicting the oldest. Two quantities the
//! algorithms read off a buffer:
//!
//! * the **availability bitmap** exchanged each period — `20 + B` bits on
//!   the wire (§5.4.2). A received map is a [`StreamBuffer`] too, filled
//!   by [`StreamBuffer::install_wire`];
//! * a segment's **replacement probability** `p_ij / B` (eq. 2), where
//!   `p_ij` is the segment's distance from the buffer tail (the insertion
//!   end): a segment that has traversed most of the FIFO is about to be
//!   evicted, so its replacement probability approaches 1.

use crate::SegmentId;

/// A fixed-capacity sliding bit window over segment IDs.
///
/// The window covers `[head, head + capacity)`. Inserting an ID at or past
/// the end slides the window forward (FIFO eviction of the oldest IDs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamBuffer {
    head: SegmentId,
    capacity: u64,
    /// Bit `i` of the window = presence of segment `head + i`; bits at
    /// or past `capacity` are always zero.
    words: Vec<u64>,
}

impl StreamBuffer {
    /// An empty buffer of the given capacity with the window starting at
    /// segment 1 (segment IDs are 1-based).
    pub fn new(capacity: u64) -> Self {
        Self::with_head(capacity, 1)
    }

    /// An empty buffer whose window starts at `head`.
    pub fn with_head(capacity: u64, head: SegmentId) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        let words = vec![0u64; capacity.div_ceil(64) as usize];
        StreamBuffer {
            head,
            capacity,
            words,
        }
    }

    /// The buffer capacity `B`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The oldest ID the window can currently hold.
    pub fn head(&self) -> SegmentId {
        self.head
    }

    /// One past the newest ID the window can currently hold.
    pub fn end(&self) -> SegmentId {
        self.head + self.capacity
    }

    /// Number of segments present: a popcount of the window. Only debug
    /// dumps and tests ask, so no count is kept through inserts, slides
    /// and installs.
    pub fn len(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True when no segments are present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    fn bit_index(&self, id: SegmentId) -> Option<(usize, u32)> {
        if id < self.head || id >= self.head + self.capacity {
            return None;
        }
        let off = id - self.head;
        Some(((off / 64) as usize, (off % 64) as u32))
    }

    /// Whether segment `id` is present.
    #[inline]
    pub fn contains(&self, id: SegmentId) -> bool {
        match self.bit_index(id) {
            Some((w, b)) => self.words[w] >> b & 1 == 1,
            None => false,
        }
    }

    /// The 64 presence bits of segments `start .. start + 64` (bit `i` =
    /// segment `start + i`), zero outside the window — `start` need not
    /// be word-aligned or inside the window. Bits at or past `capacity`
    /// are zero in every buffer (`mask_tail`), so no end mask is needed.
    #[inline]
    pub(crate) fn window_word(&self, start: SegmentId) -> u64 {
        if start < self.head {
            let below = self.head - start;
            return match self.words.first() {
                Some(&w) if below < 64 => w << below,
                _ => 0,
            };
        }
        let off = start - self.head;
        if off >= self.capacity {
            return 0;
        }
        let (wi, b) = ((off / 64) as usize, (off % 64) as u32);
        let mut word = self.words[wi] >> b;
        if b > 0 {
            if let Some(&next) = self.words.get(wi + 1) {
                word |= next << (64 - b);
            }
        }
        word
    }

    /// Insert segment `id`. IDs older than the window are rejected
    /// (`false`); IDs past the window slide it forward first, evicting the
    /// oldest segments FIFO-style. Returns `true` if the segment was newly
    /// inserted.
    pub fn insert(&mut self, id: SegmentId) -> bool {
        if id < self.head {
            return false;
        }
        if id >= self.head + self.capacity {
            self.slide_to(id - self.capacity + 1);
        }
        let (w, b) = self.bit_index(id).expect("id is inside the window now");
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        true
    }

    /// Slide the window so it starts at `new_head`, evicting everything
    /// older. No-op if `new_head ≤ head`.
    pub fn slide_to(&mut self, new_head: SegmentId) {
        if new_head <= self.head {
            return;
        }
        let shift = new_head - self.head;
        self.head = new_head;
        if shift >= self.capacity {
            self.words.fill(0);
            return;
        }
        // Drop the evicted bits by shifting the whole bitset right by
        // `shift`.
        let word_shift = (shift / 64) as usize;
        let bit_shift = (shift % 64) as u32;
        let n = self.words.len();
        if word_shift > 0 {
            self.words.rotate_left(word_shift);
            self.words[n - word_shift..].fill(0);
        }
        if bit_shift > 0 {
            for i in 0..n {
                let hi = if i + 1 < n { self.words[i + 1] } else { 0 };
                self.words[i] = (self.words[i] >> bit_shift) | (hi << (64 - bit_shift));
            }
        }
        self.mask_tail();
    }

    /// Zero any bits at or past `capacity` in the top word (shifts and
    /// wire words can set them).
    fn mask_tail(&mut self) {
        let valid = self.capacity % 64;
        if valid != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << valid) - 1;
        }
    }

    /// Number of present segments with ids in `[from, to)`, counted
    /// word-level (popcount with edge masks) — the per-round occupancy
    /// probes scan windows of hundreds of segments, and a per-bit
    /// `contains` loop there would undo the word-level design of the
    /// rest of the hot path.
    pub fn count_range(&self, from: SegmentId, to: SegmentId) -> u64 {
        let lo = from.max(self.head);
        let hi = to.min(self.head + self.capacity);
        if lo >= hi {
            return 0;
        }
        let start = lo - self.head;
        let end = hi - self.head; // exclusive, ≤ capacity
        let (sw, sb) = ((start / 64) as usize, (start % 64) as u32);
        let (ew, eb) = ((end / 64) as usize, (end % 64) as u32);
        let mut count = 0u32;
        if sw == ew {
            // Same word: `eb > sb` here, so the width is in 1..=63.
            let mask = ((1u64 << (eb - sb)) - 1) << sb;
            count += (self.words[sw] & mask).count_ones();
        } else {
            count += (self.words[sw] >> sb).count_ones();
            for w in &self.words[sw + 1..ew] {
                count += w.count_ones();
            }
            if eb > 0 {
                count += (self.words[ew] & ((1u64 << eb) - 1)).count_ones();
            }
        }
        count as u64
    }

    /// Iterate over the IDs present, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let head = self.head;
            let base = wi as u64 * 64;
            BitIter(w).map(move |b| head + base + b as u64)
        })
    }

    /// The segment's distance from the buffer *tail* (the insertion end):
    /// `head + B − id`. Grows as the segment ages toward eviction.
    /// `None` if the id is outside the window.
    pub fn distance_from_tail(&self, id: SegmentId) -> Option<u64> {
        (id >= self.head && id < self.end()).then(|| self.end() - id)
    }

    /// Equation (2)'s per-supplier factor: the probability this segment
    /// will (soon) be replaced in this buffer, `p_ij / B ∈ (0, 1]`.
    /// Segments below the window have effectively been replaced (1.0);
    /// segments past it are not in danger (0.0).
    pub fn replacement_probability(&self, id: SegmentId) -> f64 {
        if id < self.head {
            return 1.0;
        }
        match self.distance_from_tail(id) {
            Some(d) => d as f64 / self.capacity as f64,
            None => 0.0,
        }
    }

    /// The length of the contiguous present run starting at `from`.
    ///
    /// Word-level: scans 64 segments per step instead of one bit at a
    /// time. Runs never extend past the window end (bits beyond
    /// `capacity` are kept zero by `mask_tail`).
    pub fn contiguous_from(&self, from: SegmentId) -> u64 {
        if from < self.head || from >= self.end() {
            return 0;
        }
        let start = from - self.head;
        let mut off = start;
        while off < self.capacity {
            let w = (off / 64) as usize;
            let b = (off % 64) as u32;
            // Ones of this word starting at bit `b`, as trailing ones.
            let inv = !(self.words[w] >> b);
            let avail = 64 - b as u64;
            let run = (inv.trailing_zeros() as u64).min(avail);
            off += run;
            if run < avail {
                break;
            }
        }
        off - start
    }

    /// Whether all of `[from, from + count)` is present.
    ///
    /// Word-level: compares whole 64-bit masks instead of per-bit probes.
    pub fn has_range(&self, from: SegmentId, count: u64) -> bool {
        if count == 0 {
            return true;
        }
        if from < self.head || count > self.capacity || from + count > self.end() {
            return false;
        }
        let mut off = from - self.head;
        let mut rem = count;
        while rem > 0 {
            let w = (off / 64) as usize;
            let b = off % 64;
            let take = (64 - b).min(rem);
            let mask = if take == 64 {
                !0u64
            } else {
                ((1u64 << take) - 1) << b
            };
            if self.words[w] & mask != mask {
                return false;
            }
            off += take;
            rem -= take;
        }
        true
    }

    /// The advertised window as raw wire parts: `(head, capacity,
    /// bitmap words)` — what the round's buffer-map exchange installs via
    /// [`Self::install_wire`], whether read in place (the simulator) or
    /// carried by the live-network twin's `Announce` messages.
    pub fn wire_parts(&self) -> (SegmentId, u64, &[u64]) {
        (self.head, self.capacity, &self.words)
    }

    /// Overwrite this buffer with a received map's wire parts
    /// ([`Self::wire_parts`]), reusing the word allocation — the
    /// allocation-free path the round's buffer-map exchange uses. The
    /// words are resized to `⌈capacity/64⌉` and bits at or past
    /// `capacity` cleared: they come off the wire, and every read here
    /// relies on them being zero.
    pub fn install_wire(&mut self, head: SegmentId, capacity: u64, words: &[u64]) {
        let n = capacity.div_ceil(64) as usize;
        self.head = head;
        self.capacity = capacity;
        self.words.clear();
        self.words.extend_from_slice(&words[..n.min(words.len())]);
        self.words.resize(n, 0);
        self.mask_tail();
    }

    /// A copy of this buffer as the map it advertises (what a receiver's
    /// [`Self::install_wire`] ends up holding). Nothing in the round
    /// calls it; the benchmark's `fresh_for` kernel builds its map with
    /// it.
    pub fn to_map(&self) -> StreamBuffer {
        self.clone()
    }

    /// IDs present in this map but absent from `buffer`, within
    /// `[lo, hi)` — the "fresh to the local node" candidate set of §4.2,
    /// in increasing order.
    ///
    /// Borrows both sides (no clones) and works a word at a time:
    /// `theirs & !mine` over 64-segment steps from `lo`, clamped to this
    /// map's window, so a narrow exchange window over a wide buffer skips
    /// most of the bitmap. The round's scheduler gathers these words
    /// itself; `fresh_for` stays as the word-level op the tests hold to a
    /// per-bit reference and the benchmark kernel times.
    pub fn fresh_for<'a>(
        &'a self,
        buffer: &'a StreamBuffer,
        lo: SegmentId,
        hi: SegmentId,
    ) -> impl Iterator<Item = SegmentId> + 'a {
        let lo = lo.max(self.head);
        let hi = hi.min(self.end());
        // An empty or inverted range is zero steps.
        (lo..hi).step_by(64).flat_map(move |base| {
            let word = self.window_word(base) & !buffer.window_word(base) & low_bits(hi - base);
            BitIter(word).map(move |b| base + b as u64)
        })
    }
}

/// A mask of the low `n` bits; all 64 from `n = 64` up.
#[inline]
pub(crate) fn low_bits(n: u64) -> u64 {
    if n < 64 {
        (1u64 << n) - 1
    } else {
        !0
    }
}

/// Iterator over set bits of one word.
pub(crate) struct BitIter(pub(crate) u64);

impl Iterator for BitIter {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_range_matches_per_bit_reference() {
        // Randomised fills across word-boundary-straddling windows and
        // ranges: the popcount path must agree with a contains() scan.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..200 {
            let capacity = 1 + next() % 300;
            let head = 1 + next() % 500;
            let mut b = StreamBuffer::with_head(capacity, head);
            for _ in 0..(next() % 200) {
                b.insert(head + next() % capacity);
            }
            let from = next() % (head + capacity + 40);
            let to = from + next() % (capacity + 80);
            let reference = (from..to).filter(|&id| b.contains(id)).count() as u64;
            assert_eq!(
                b.count_range(from, to),
                reference,
                "case {case}: capacity {capacity}, head {head}, range {from}..{to}"
            );
        }
    }

    #[test]
    fn insert_and_contains() {
        let mut b = StreamBuffer::new(10);
        assert!(b.insert(1));
        assert!(b.insert(5));
        assert!(!b.insert(5), "duplicate insert");
        assert!(b.contains(1));
        assert!(b.contains(5));
        assert!(!b.contains(2));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn window_slides_fifo() {
        let mut b = StreamBuffer::new(10); // window [1, 11)
        for id in 1..=10 {
            assert!(b.insert(id));
        }
        assert_eq!(b.len(), 10);
        // Inserting 15 slides the window to [6, 16): 1..=5 evicted.
        assert!(b.insert(15));
        assert_eq!(b.head(), 6);
        assert!(!b.contains(5));
        assert!(b.contains(6));
        assert!(b.contains(15));
        assert_eq!(b.len(), 6); // 6..=10 and 15
    }

    #[test]
    fn stale_ids_rejected() {
        let mut b = StreamBuffer::with_head(10, 100);
        assert!(!b.insert(99));
        assert!(b.insert(100));
    }

    #[test]
    fn slide_past_everything_clears() {
        let mut b = StreamBuffer::new(10);
        for id in 1..=10 {
            b.insert(id);
        }
        b.slide_to(1000);
        assert!(b.is_empty());
        assert_eq!(b.head(), 1000);
        assert!(b.insert(1005));
    }

    #[test]
    fn slide_is_noop_backwards() {
        let mut b = StreamBuffer::with_head(10, 50);
        b.insert(55);
        b.slide_to(10);
        assert_eq!(b.head(), 50);
        assert!(b.contains(55));
    }

    #[test]
    fn multi_word_window() {
        // Capacity 600 spans 10 words, like the paper's default buffer.
        let mut b = StreamBuffer::new(600);
        let ids: Vec<u64> = (1..=600).filter(|i| i % 7 == 0).collect();
        for &id in &ids {
            assert!(b.insert(id));
        }
        for &id in &ids {
            assert!(b.contains(id), "missing {id}");
        }
        assert_eq!(b.len(), ids.len() as u64);
        let collected: Vec<u64> = b.iter().collect();
        assert_eq!(collected, ids);
    }

    #[test]
    fn slide_partial_word_amounts() {
        for shift in [1u64, 3, 63, 64, 65, 100, 599] {
            let mut b = StreamBuffer::new(600);
            for id in 1..=600 {
                b.insert(id);
            }
            b.slide_to(1 + shift);
            assert_eq!(b.len(), 600 - shift, "shift {shift}");
            assert!(!b.contains(shift));
            assert!(b.contains(shift + 1), "shift {shift}");
            assert!(b.contains(600));
            // Window extends but new slots are empty.
            assert!(!b.contains(600 + shift));
        }
    }

    #[test]
    fn iter_after_slide_is_consistent() {
        let mut b = StreamBuffer::new(64);
        for id in (1..=64).step_by(3) {
            b.insert(id);
        }
        b.slide_to(20);
        let ids: Vec<u64> = b.iter().collect();
        assert!(ids.iter().all(|&i| i >= 20));
        assert_eq!(ids.len() as u64, b.len());
        for &id in &ids {
            assert!(b.contains(id));
        }
    }

    #[test]
    fn distance_from_tail_and_replacement_probability() {
        let mut b = StreamBuffer::new(100); // window [1, 101)
        b.insert(1);
        // Oldest slot: distance 100, probability 1.0.
        assert_eq!(b.distance_from_tail(1), Some(100));
        assert_eq!(b.replacement_probability(1), 1.0);
        // Newest slot: distance 1, probability 0.01.
        assert_eq!(b.distance_from_tail(100), Some(1));
        assert!((b.replacement_probability(100) - 0.01).abs() < 1e-12);
        // Outside the window.
        assert_eq!(b.distance_from_tail(101), None);
        assert_eq!(b.replacement_probability(101), 0.0);
        assert_eq!(b.replacement_probability(0), 1.0, "already evicted");
    }

    #[test]
    fn contiguous_and_range() {
        let mut b = StreamBuffer::new(20);
        for id in [1, 2, 3, 5, 6] {
            b.insert(id);
        }
        assert_eq!(b.contiguous_from(1), 3);
        assert_eq!(b.contiguous_from(5), 2);
        assert_eq!(b.contiguous_from(4), 0);
        assert!(b.has_range(1, 3));
        assert!(!b.has_range(1, 4));
        assert!(b.has_range(5, 2));
    }

    #[test]
    fn map_reflects_buffer() {
        let mut b = StreamBuffer::new(600);
        for id in [10u64, 20, 300, 599] {
            b.insert(id);
        }
        let m = b.to_map();
        assert_eq!(m.head(), b.head());
        for id in 1..=620 {
            assert_eq!(m.contains(id), b.contains(id), "id {id}");
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn fresh_for_filters_window_and_local() {
        let mut theirs = StreamBuffer::new(50);
        for id in 1..=30 {
            theirs.insert(id);
        }
        let mut mine = StreamBuffer::new(50);
        for id in 1..=10 {
            mine.insert(id);
        }
        let m = theirs.to_map();
        let fresh: Vec<u64> = m.fresh_for(&mine, 5, 25).collect();
        assert_eq!(fresh, (11..25).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = StreamBuffer::new(0);
    }

    // ---- regression pins for the word-level rewrites ---------------------
    //
    // `has_range` and `contiguous_from` were originally per-bit loops;
    // these tests pin the word-level versions against that reference
    // semantics, with special attention to word boundaries (offsets around
    // 63/64/65), the window edges, and ranges that wrap past the window.

    /// The original per-bit implementations, kept as the oracle.
    fn has_range_ref(b: &StreamBuffer, from: SegmentId, count: u64) -> bool {
        (0..count).all(|i| b.contains(from + i))
    }

    fn contiguous_from_ref(b: &StreamBuffer, from: SegmentId) -> u64 {
        let mut n = 0;
        while b.contains(from + n) {
            n += 1;
        }
        n
    }

    /// `fresh_for` by its definition, one `contains` pair per id.
    fn fresh_for_ref(
        map: &StreamBuffer,
        buffer: &StreamBuffer,
        lo: SegmentId,
        hi: SegmentId,
    ) -> Vec<SegmentId> {
        (lo..hi)
            .filter(|&id| map.contains(id) && !buffer.contains(id))
            .collect()
    }

    /// A buffer of the given shape, about two thirds full.
    fn seeded_buffer(capacity: u64, head: SegmentId, salt: u64) -> StreamBuffer {
        let mut b = StreamBuffer::with_head(capacity, head);
        let mut x = capacity.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ head ^ salt;
        for off in 0..capacity {
            x = cs_sim::splitmix64(x);
            if !x.is_multiple_of(3) {
                b.insert(head + off);
            }
        }
        b
    }

    #[test]
    fn word_level_ops_match_per_bit_reference() {
        // A deterministic pseudo-random fill over several window shapes,
        // including capacities off and on word boundaries.
        for (capacity, head) in [
            (10u64, 1u64),
            (63, 1),
            (64, 1),
            (65, 1),
            (128, 50),
            (600, 1),
            (600, 1000),
            (130, 7),
        ] {
            let b = seeded_buffer(capacity, head, 0);
            // Probe every in-window offset plus both out-of-window edges.
            for from in (head.saturating_sub(2))..(head + capacity + 2) {
                assert_eq!(
                    b.contiguous_from(from),
                    contiguous_from_ref(&b, from),
                    "contiguous_from({from}) cap={capacity} head={head}"
                );
                for count in [0u64, 1, 2, 9, 10, 63, 64, 65, capacity, capacity + 1] {
                    assert_eq!(
                        b.has_range(from, count),
                        has_range_ref(&b, from, count),
                        "has_range({from}, {count}) cap={capacity} head={head}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_word_matches_per_bit_reference() {
        // Capacities on and off word boundaries; every start from well
        // below `head` (including the 64 bits that only graze it) to past
        // `end` (including the 64 bits that straddle it).
        for (capacity, head) in [
            (1u64, 1u64),
            (10, 1),
            (63, 90),
            (64, 90),
            (65, 90),
            (130, 7),
            (200, 1000),
            (600, 1),
            (600, 1000),
        ] {
            let b = seeded_buffer(capacity, head, 1);
            for start in head.saturating_sub(70)..head + capacity + 70 {
                let expect = (0..64).fold(0u64, |w, i| w | u64::from(b.contains(start + i)) << i);
                assert_eq!(
                    b.window_word(start),
                    expect,
                    "word at {start}, cap={capacity} head={head}"
                );
            }
        }
    }

    #[test]
    fn wire_bits_past_capacity_are_masked_on_install() {
        // Wire words may carry set bits past `capacity` (a 600-bit window
        // arrives as 640 bits); the installed map must read exactly like
        // the one with them cleared, through every read of a map.
        for (capacity, head) in [(70u64, 100u64), (600, 1), (600, 1000), (1, 5), (130, 7)] {
            let masked = seeded_buffer(capacity, head, 2);
            let (_, _, words) = masked.wire_parts();
            let mut dirty = words.to_vec();
            let valid = capacity % 64;
            if valid != 0 {
                *dirty.last_mut().unwrap() |= !0u64 << valid;
            }
            let mut m = StreamBuffer::new(1);
            m.install_wire(head, capacity, &dirty);
            assert_eq!(m, masked, "cap={capacity} head={head}");
            assert_eq!(m.len(), masked.len());
            assert_eq!(
                m.iter().collect::<Vec<_>>(),
                masked.iter().collect::<Vec<_>>()
            );
            let mine = seeded_buffer(capacity + 30, head.saturating_sub(10).max(1), 3);
            for start in head.saturating_sub(70)..head + capacity + 70 {
                assert_eq!(
                    m.contains(start),
                    masked.contains(start),
                    "contains({start})"
                );
                assert_eq!(
                    m.window_word(start),
                    masked.window_word(start),
                    "word at {start}"
                );
                assert_eq!(
                    m.fresh_for(&mine, start, start + 90).collect::<Vec<_>>(),
                    masked
                        .fresh_for(&mine, start, start + 90)
                        .collect::<Vec<_>>(),
                    "fresh_for from {start}"
                );
            }
        }
        // Two full words for a 70-bit window: six bits of the second.
        let mut m = StreamBuffer::new(1);
        m.install_wire(100, 70, &[!0, !0]);
        assert_eq!(m.len(), 70);
        assert_eq!(m.window_word(164), 0b11_1111);
        assert_eq!(m.window_word(90), !0u64 << 10);
        assert_eq!(m.window_word(170), 0);
    }

    #[test]
    fn fresh_for_matches_per_bit_reference() {
        // Seeded random cases: the two sides differ in capacity and
        // head, so the range (the scheduler's anchor-aligned window)
        // starts below, inside and past either window, and one case in
        // five is empty or inverted.
        let mut x = 0xF2E5u64;
        let mut next = move || {
            x = cs_sim::splitmix64(x);
            x >> 8
        };
        for case in 0..400 {
            let (cap_t, cap_m) = (1 + next() % 300, 1 + next() % 300);
            let (head_t, head_m) = (1 + next() % 400, 1 + next() % 400);
            let theirs = seeded_buffer(cap_t, head_t, case).to_map();
            let mine = seeded_buffer(cap_m, head_m, !case);
            let lo = next() % 800;
            let hi = if next() % 5 == 0 {
                lo.saturating_sub(next() % 3)
            } else {
                lo + next() % 400
            };
            assert_eq!(
                theirs.fresh_for(&mine, lo, hi).collect::<Vec<_>>(),
                fresh_for_ref(&theirs, &mine, lo, hi),
                "case {case}: theirs [{head_t}, +{cap_t}), mine [{head_m}, +{cap_m}), range {lo}..{hi}"
            );
        }
    }

    #[test]
    fn word_level_ops_full_and_empty_windows() {
        let empty = StreamBuffer::with_head(600, 100);
        assert_eq!(empty.contiguous_from(100), 0);
        assert!(!empty.has_range(100, 1));
        assert!(empty.has_range(100, 0), "empty range is trivially present");

        let mut full = StreamBuffer::with_head(600, 100);
        for id in 100..700 {
            full.insert(id);
        }
        // The full window is one contiguous run that stops at the end.
        assert_eq!(full.contiguous_from(100), 600);
        assert_eq!(full.contiguous_from(163), 537); // crosses word boundary
        assert!(full.has_range(100, 600));
        assert!(
            !full.has_range(100, 601),
            "range wrapping past the window end must fail"
        );
        assert!(
            !full.has_range(99, 2),
            "range starting below head must fail"
        );
        // Runs crossing exactly one word boundary.
        assert!(full.has_range(100 + 63, 2));
        assert!(full.has_range(100 + 60, 10));
    }

    #[test]
    fn word_level_ops_hole_at_word_boundary() {
        let mut b = StreamBuffer::with_head(256, 1);
        for id in 1..=256u64 {
            b.insert(id);
        }
        // Punch a hole exactly at the start of the second word (offset 64
        // = segment 65) by rebuilding without it.
        let mut holed = StreamBuffer::with_head(256, 1);
        for id in (1..=256u64).filter(|&i| i != 65) {
            holed.insert(id);
        }
        assert_eq!(holed.contiguous_from(1), 64);
        assert_eq!(holed.contiguous_from(66), 191);
        assert!(holed.has_range(1, 64));
        assert!(!holed.has_range(1, 65));
        assert!(holed.has_range(66, 191));
        assert!(!holed.has_range(64, 3));
    }

    #[test]
    fn install_wire_matches_to_map() {
        let mut b = StreamBuffer::new(600);
        for id in (1..=600u64).filter(|i| i % 5 == 0) {
            b.insert(id);
        }
        let install = |b: &StreamBuffer, map: &mut StreamBuffer| {
            let (head, capacity, words) = b.wire_parts();
            map.install_wire(head, capacity, words);
            assert_eq!(map.len(), b.len());
        };
        let mut reused = StreamBuffer::new(1);
        install(&b, &mut reused);
        assert_eq!(reused, b.to_map());
        // Refreshing after mutations keeps it in sync.
        b.insert(1200);
        install(&b, &mut reused);
        assert_eq!(reused, b.to_map());
    }

    #[test]
    fn fresh_for_masks_edge_words() {
        let mut theirs = StreamBuffer::new(600);
        for id in 1..=600 {
            theirs.insert(id);
        }
        let mine = StreamBuffer::new(600);
        let m = theirs.to_map();
        // Window straddling word boundaries of the map.
        let fresh: Vec<u64> = m.fresh_for(&mine, 60, 70).collect();
        assert_eq!(fresh, (60..70).collect::<Vec<u64>>());
        // Clamped below and above the map's window.
        let clamped: Vec<u64> = m.fresh_for(&mine, 0, 2_000).collect();
        assert_eq!(clamped.len(), 600);
        // Empty and inverted windows.
        assert_eq!(m.fresh_for(&mine, 50, 50).count(), 0);
        assert_eq!(m.fresh_for(&mine, 70, 60).count(), 0);
    }
}
