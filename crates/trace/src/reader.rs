//! Reading: parse trace bytes back into per-shard event streams.
//!
//! Parsing is eager and fully validated: magic, version, every shard
//! dictionary, every record, the UVM footer and the end marker. The
//! input is treated as untrusted — any malformation yields a typed
//! [`TraceError`], never a panic. Dictionary names are interned into the
//! process-global symbol table, the one live sessions use: a decoded
//! name is pointer-equal to its live original, and parsing the same
//! trace again interns nothing.

use crate::codec::{decode_uvm, ShardDecoder};
use crate::error::TraceError;
use crate::wire::Cursor;
use crate::writer::{END_MAGIC, FORMAT_VERSION, MAGIC};
use accel_sim::{DeviceId, Symbol};
use pasta_core::report::UvmReport;
use pasta_core::Event;

/// One decoded per-device stream.
#[derive(Debug, Clone)]
pub struct TraceShard {
    /// The device whose hub shard produced the stream.
    pub device: DeviceId,
    /// The shard's events, in processing order.
    pub events: Vec<Event>,
}

/// A fully decoded trace.
#[derive(Debug)]
pub struct TraceReader {
    shards: Vec<TraceShard>,
    uvm: Option<UvmReport>,
    symbol_count: usize,
}

impl TraceReader {
    /// Parses and validates `bytes` end to end.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for
    /// foreign or future files, [`TraceError::Truncated`] when the input
    /// ends mid-structure, [`TraceError::Corrupt`] for structurally
    /// invalid bytes.
    ///
    /// # Memory
    ///
    /// Interned names live as long as the process. Each distinct name is
    /// stored once however many traces or parses carry it, so what
    /// untrusted input can pin is bounded by the dictionary bytes of the
    /// traces that parsed as far as their dictionaries — a trace rejected
    /// later (bad record, truncation) has still interned the dictionaries
    /// read before the error.
    pub fn parse(bytes: &[u8]) -> Result<TraceReader, TraceError> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take(8)?;
        if magic != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(magic);
            return Err(TraceError::BadMagic { found });
        }
        let version = cur.u32_le()?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let shard_count = cur.u32_le()?;
        if shard_count == 0 {
            return Err(TraceError::Corrupt {
                offset: cur.pos(),
                what: "trace has no shards".into(),
            });
        }
        if shard_count > 1 << 16 {
            return Err(TraceError::Corrupt {
                offset: cur.pos(),
                what: format!("implausible shard count {shard_count}"),
            });
        }

        let mut dictionary: Vec<Symbol> = Vec::new();
        let mut shards = Vec::with_capacity(shard_count as usize);
        for _ in 0..shard_count {
            let device = DeviceId(cur.u32_le()?);
            let sym_count = cur.varint_usize()?;
            let shard_names = dictionary.len();
            for _ in 0..sym_count {
                let len = cur.varint_usize()?;
                let raw = cur.take(len)?;
                let name = std::str::from_utf8(raw).map_err(|e| TraceError::Corrupt {
                    offset: cur.pos(),
                    what: format!("symbol is not utf-8: {e}"),
                })?;
                dictionary.push(Symbol::intern(name));
            }
            let records = cur.varint()?;
            let payload_len = cur.varint_usize()?;
            let payload_start = cur.pos();
            if cur.remaining() < payload_len {
                return Err(TraceError::Truncated {
                    offset: bytes.len(),
                });
            }
            // Every record is at least one byte (its tag), so a count past
            // the payload length is a lie — caught before it sizes anything.
            let records = usize::try_from(records)
                .ok()
                .filter(|&n| n <= payload_len)
                .ok_or_else(|| TraceError::Corrupt {
                    offset: payload_start,
                    what: format!("{records} records cannot fit a {payload_len}-byte payload"),
                })?;
            let mut decoder = ShardDecoder::new(&dictionary[shard_names..]);
            let mut events = Vec::with_capacity(records);
            for _ in 0..records {
                events.push(decoder.decode(&mut cur)?);
            }
            let consumed = cur.pos() - payload_start;
            if consumed != payload_len {
                return Err(TraceError::Corrupt {
                    offset: cur.pos(),
                    what: format!(
                        "shard payload length mismatch: header says {payload_len}, \
                         records consumed {consumed}"
                    ),
                });
            }
            shards.push(TraceShard { device, events });
        }

        let uvm = match cur.u8()? {
            0 => None,
            1 => Some(decode_uvm(&mut cur)?),
            b => {
                return Err(TraceError::Corrupt {
                    offset: cur.pos(),
                    what: format!("bad uvm-footer flag {b}"),
                })
            }
        };
        let end = cur.take(8)?;
        if end != END_MAGIC {
            return Err(TraceError::Corrupt {
                offset: cur.pos(),
                what: "missing end marker (file written but never finished?)".into(),
            });
        }
        if cur.remaining() != 0 {
            return Err(TraceError::Corrupt {
                offset: cur.pos(),
                what: format!("{} trailing bytes after end marker", cur.remaining()),
            });
        }
        // One table, so distinct names are distinct addresses.
        dictionary.sort_unstable_by_key(|name| name.as_str().as_ptr());
        dictionary.dedup_by(|a, b| Symbol::ptr_eq(a, b));
        Ok(TraceReader {
            shards,
            uvm,
            symbol_count: dictionary.len(),
        })
    }

    /// Decoded per-device streams, ascending device id.
    pub fn shards(&self) -> &[TraceShard] {
        &self.shards
    }

    /// The UVM footer, when the captured session had UVM attached.
    pub fn uvm(&self) -> Option<&UvmReport> {
        self.uvm.as_ref()
    }

    /// Total events across all shards.
    pub fn events_total(&self) -> u64 {
        self.shards.iter().map(|s| s.events.len() as u64).sum()
    }

    /// Distinct names across every shard's dictionary.
    pub fn symbol_count(&self) -> usize {
        self.symbol_count
    }
}
