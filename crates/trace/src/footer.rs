//! The UVM footer: the session-layer residency totals that live *outside*
//! the event stream (the manager overlay, not events), snapshotted at
//! [`crate::TraceWriter::finish`] so replay can restore
//! [`pasta_core::MergedReport::uvm`] exactly.
//!
//! Layout: the totals as eleven `u64`s, a `u32` device count, then per
//! device a `u32` id and its eleven `u64`s, a `u32` pair count, then per
//! pair two `u32` device ids and a `u64` of bytes.

use crate::error::TraceError;
use crate::wire::Cursor;
use accel_sim::DeviceId;
use pasta_core::report::UvmReport;
use uvm_sim::UvmStats;

macro_rules! uvm_stats {
    ($($field:ident)*) => {
        fn put_stats(buf: &mut Vec<u8>, s: &UvmStats) {
            $(buf.extend_from_slice(&s.$field.to_le_bytes());)*
        }

        fn stats(cur: &mut Cursor<'_>) -> Result<UvmStats, TraceError> {
            Ok(UvmStats { $($field: cur.u64()?),* })
        }
    };
}

// Eleven `u64`s, in declaration order.
uvm_stats! {
    fault_groups demand_pages_in prefetch_pages_in pages_evicted fault_stall_ns
    prefetch_stall_ns evict_stall_ns prefetch_noops peer_pages_in peer_stall_ns
    duplicates_invalidated
}

fn put_count(buf: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("under 2^32 footer entries");
    buf.extend_from_slice(&n.to_le_bytes());
}

/// Appends the footer of `uvm` to `buf`.
pub(crate) fn encode_uvm(buf: &mut Vec<u8>, uvm: &UvmReport) {
    put_stats(buf, &uvm.stats);
    put_count(buf, uvm.per_device.len());
    for (dev, s) in &uvm.per_device {
        buf.extend_from_slice(&dev.0.to_le_bytes());
        put_stats(buf, s);
    }
    put_count(buf, uvm.peer_bytes.len());
    for ((src, dst), bytes) in &uvm.peer_bytes {
        buf.extend_from_slice(&src.0.to_le_bytes());
        buf.extend_from_slice(&dst.0.to_le_bytes());
        buf.extend_from_slice(&bytes.to_le_bytes());
    }
}

/// Inverse of [`encode_uvm`].
pub(crate) fn decode_uvm(cur: &mut Cursor<'_>) -> Result<UvmReport, TraceError> {
    let totals = stats(cur)?;
    let lanes = cur.count()?;
    let mut per_device = Vec::new();
    for _ in 0..lanes {
        let dev = DeviceId(cur.u32()?);
        per_device.push((dev, stats(cur)?));
    }
    let pairs = cur.count()?;
    let mut peer_bytes = Vec::new();
    for _ in 0..pairs {
        let src = DeviceId(cur.u32()?);
        let dst = DeviceId(cur.u32()?);
        peer_bytes.push(((src, dst), cur.u64()?));
    }
    Ok(UvmReport {
        stats: totals,
        per_device,
        peer_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvm_footer_round_trips_at_its_fixed_width() {
        let report = UvmReport {
            stats: UvmStats {
                fault_groups: 7,
                demand_pages_in: 1 << 40,
                peer_pages_in: 32,
                duplicates_invalidated: u64::MAX,
                ..UvmStats::default()
            },
            per_device: vec![
                (DeviceId(0), UvmStats::default()),
                (
                    DeviceId(u32::MAX),
                    UvmStats {
                        peer_stall_ns: 9_999,
                        ..UvmStats::default()
                    },
                ),
            ],
            peer_bytes: vec![((DeviceId(0), DeviceId(1)), 1 << 21)],
        };
        let mut buf = Vec::new();
        encode_uvm(&mut buf, &report);
        assert_eq!(buf.len(), 88 + 4 + 2 * (4 + 88) + 4 + (4 + 4 + 8));
        let mut cur = Cursor::new(&buf);
        assert_eq!(decode_uvm(&mut cur).unwrap(), report);
        assert_eq!(cur.remaining(), 0);
        // Cut anywhere, it is truncated at the cut.
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert!(matches!(
                decode_uvm(&mut cur),
                Err(TraceError::Truncated { offset }) if offset == cut
            ));
        }
    }
}
