//! Reading: parse trace bytes back into per-shard event streams.
//!
//! Parsing is eager and fully validated: magic, version, every shard
//! dictionary, every record, the UVM footer and the end marker. The
//! input is treated as untrusted — any malformation yields a typed
//! [`TraceError`], never a panic. Symbol ids are re-interned into a
//! fresh [`SymbolTable`] owned by the reader; cross-table symbol
//! equality is by content, so replayed events compare equal to their
//! live originals.

use crate::codec::{decode_uvm, intern_dictionary, ShardDecoder};
use crate::error::TraceError;
use crate::wire::Cursor;
use crate::writer::{END_MAGIC, FORMAT_VERSION, MAGIC};
use accel_sim::{DeviceId, SymbolTable};
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
    symbols: SymbolTable,
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

        let symbols = SymbolTable::new();
        let mut shards = Vec::with_capacity(shard_count as usize);
        for _ in 0..shard_count {
            let device = DeviceId(cur.u32_le()?);
            let sym_count = cur.varint_usize()?;
            let mut names = Vec::new();
            for _ in 0..sym_count {
                let len = cur.varint_usize()?;
                let raw = cur.take(len)?;
                let name = std::str::from_utf8(raw).map_err(|e| TraceError::Corrupt {
                    offset: cur.pos(),
                    what: format!("symbol is not utf-8: {e}"),
                })?;
                names.push(name.to_owned());
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
            let mut decoder = ShardDecoder::new(intern_dictionary(&symbols, &names));
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
        Ok(TraceReader {
            shards,
            uvm,
            symbols,
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

    /// The reader's own symbol table — every name in the decoded events
    /// is interned here, independent of the process-global table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }
}
