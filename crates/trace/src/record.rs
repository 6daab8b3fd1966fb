//! Trace records and whole traces.

use serde::{Deserialize, Serialize};

use craid_diskmodel::{IoKind, BLOCK_SIZE_BYTES};
use craid_simkit::SimTime;

/// One block-level I/O request of a trace.
///
/// Offsets are dataset-relative logical block numbers (4 KiB blocks); the
/// simulator maps them onto the array's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival time relative to the start of the trace.
    pub time: SimTime,
    /// Read or write.
    pub kind: IoKind,
    /// First logical block touched.
    pub offset: u64,
    /// Number of blocks touched.
    pub length: u64,
}

impl TraceRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn new(time: SimTime, kind: IoKind, offset: u64, length: u64) -> Self {
        assert!(length > 0, "a request must touch at least one block");
        TraceRecord {
            time,
            kind,
            offset,
            length,
        }
    }

    /// Bytes moved by this request.
    pub fn bytes(&self) -> u64 {
        self.length * BLOCK_SIZE_BYTES
    }

    /// One past the last block touched.
    pub fn end(&self) -> u64 {
        self.offset + self.length
    }

    /// Iterates over the logical blocks touched by this request.
    pub fn blocks(&self) -> impl Iterator<Item = u64> {
        self.offset..self.end()
    }
}

/// An ordered sequence of trace records plus identifying metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    records: Vec<TraceRecord>,
    /// Number of distinct logical blocks the workload may touch.
    footprint_blocks: u64,
}

impl Trace {
    /// Creates a trace from records (must be in non-decreasing time order).
    ///
    /// # Panics
    ///
    /// Panics if the records are not time-ordered or a record addresses a
    /// block at or beyond `footprint_blocks`.
    pub fn new(name: impl Into<String>, footprint_blocks: u64, records: Vec<TraceRecord>) -> Self {
        assert!(footprint_blocks > 0, "footprint must be positive");
        for pair in records.windows(2) {
            assert!(
                pair[0].time <= pair[1].time,
                "trace records must be in time order"
            );
        }
        for r in &records {
            assert!(
                r.end() <= footprint_blocks,
                "record at {} touches block {} beyond the footprint of {footprint_blocks}",
                r.time,
                r.end() - 1
            );
        }
        Trace {
            name: name.into(),
            records,
            footprint_blocks,
        }
    }

    /// The workload's name (e.g. `"wdev"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of distinct logical blocks the workload may touch.
    pub fn footprint_blocks(&self) -> u64 {
        self.footprint_blocks
    }

    /// The records, in time order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Duration from the first to the last request (zero for traces with at
    /// most one request).
    pub fn duration(&self) -> craid_simkit::SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => last.time.saturating_since(first.time),
            _ => craid_simkit::SimDuration::ZERO,
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: f64, kind: IoKind, offset: u64, len: u64) -> TraceRecord {
        TraceRecord::new(SimTime::from_millis(ms), kind, offset, len)
    }

    #[test]
    fn record_accessors() {
        let r = rec(5.0, IoKind::Read, 100, 8);
        assert_eq!(r.bytes(), 8 * BLOCK_SIZE_BYTES);
        assert_eq!(r.end(), 108);
        assert_eq!(r.blocks().count(), 8);
    }

    #[test]
    fn trace_metadata_and_totals() {
        let t = Trace::new(
            "toy",
            1_000,
            vec![
                rec(0.0, IoKind::Read, 0, 4),
                rec(1.0, IoKind::Write, 10, 2),
                rec(2.0, IoKind::Read, 20, 2),
            ],
        );
        assert_eq!(t.name(), "toy");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.footprint_blocks(), 1_000);
        assert_eq!(t.duration().as_millis(), 2.0);
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new("empty", 10, Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.duration(), craid_simkit::SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_records_rejected() {
        Trace::new(
            "bad",
            100,
            vec![rec(5.0, IoKind::Read, 0, 1), rec(1.0, IoKind::Read, 0, 1)],
        );
    }

    #[test]
    #[should_panic(expected = "beyond the footprint")]
    fn records_must_fit_footprint() {
        Trace::new("bad", 10, vec![rec(0.0, IoKind::Read, 8, 4)]);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_record_rejected() {
        rec(0.0, IoKind::Read, 0, 0);
    }
}
