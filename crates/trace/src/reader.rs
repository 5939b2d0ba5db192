//! Reading: validate a trace's framing, then decode its records.
//!
//! Every reader starts with the same walk over the bytes —
//! [`TraceReader::scan`]: magic, version, every shard's dictionary and
//! header, the UVM footer, the end marker — which decodes no record and
//! allocates per shard, not per event. [`TraceReader::parse`] then
//! decodes every shard into a `Vec<Event>`; [`crate::replay`] decodes a
//! batch at a time and keeps none of it. The input is treated as
//! untrusted — any malformation yields a typed [`TraceError`], never a
//! panic, and no length read from it sizes an allocation before the
//! bytes it promises were seen. Dictionary names are interned into the
//! process-global symbol table, the one live sessions use: a decoded
//! name is pointer-equal to its live original, and parsing the same
//! trace again interns nothing.

use crate::codec::{decode_uvm, ShardDecoder, MIN_RECORD_BYTES};
use crate::error::TraceError;
use crate::wire::{corrupt, Cursor};
use crate::writer::{END_MAGIC, FORMAT_VERSION, MAGIC};
use accel_sim::{DeviceId, Symbol};
use pasta_core::report::UvmReport;
use pasta_core::Event;
use std::ops::Range;

/// One decoded per-device stream.
#[derive(Debug, Clone)]
pub struct TraceShard {
    /// The device whose hub shard produced the stream.
    pub device: DeviceId,
    /// The shard's events, in processing order.
    pub events: Vec<Event>,
}

/// What one shard's header declares, checked against the bytes present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// The device whose hub shard produced the stream.
    pub device: DeviceId,
    /// Names in the shard's dictionary.
    pub symbols: usize,
    /// Records in the shard's stream.
    pub records: usize,
    /// Where in the trace bytes the shard's records lie.
    pub payload: Range<usize>,
}

/// A trace's framing: what [`TraceReader::scan`] reads without decoding
/// a record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// One entry per device stream, ascending device id.
    pub shards: Vec<ShardSummary>,
    /// The UVM footer, when the captured session had UVM attached.
    pub uvm: Option<UvmReport>,
}

impl TraceSummary {
    /// Total records across all shards.
    pub fn events_total(&self) -> u64 {
        self.shards.iter().map(|s| s.records as u64).sum()
    }
}

/// Bytes of the shortest shard frame: a `u32` device, then a dictionary
/// size, a record count and a payload length of one byte each.
const MIN_SHARD_BYTES: usize = 4 + 3;

/// Events [`TraceReader::parse`] reserves room for before it has decoded
/// any: a shard grows past this with what its payload really holds.
const RESERVE_EVENTS: usize = 1 << 13;

/// Names [`frames`] reserves dictionary room for on a shard header's word:
/// a longer dictionary grows with the names really read.
const RESERVE_NAMES: usize = 1 << 10;

/// Walks everything in `bytes` but the records themselves. With a
/// `dictionary` to fill, every shard's names are interned onto it in file
/// order; without one they are only checked.
fn frames(
    bytes: &[u8],
    mut dictionary: Option<&mut Vec<Symbol>>,
) -> Result<TraceSummary, TraceError> {
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
        return Err(corrupt(cur.pos(), format_args!("trace has no shards")));
    }
    if shard_count > 1 << 16 {
        return Err(corrupt(
            cur.pos(),
            format_args!("implausible shard count {shard_count}"),
        ));
    }

    let fit = cur.remaining() / MIN_SHARD_BYTES;
    let mut shards = Vec::with_capacity(fit.min(shard_count as usize));
    for _ in 0..shard_count {
        let device = DeviceId(cur.u32_le()?);
        let symbols = cur.varint_usize()?;
        if let Some(dictionary) = &mut dictionary {
            dictionary.reserve(symbols.min(cur.remaining()).min(RESERVE_NAMES));
        }
        for _ in 0..symbols {
            let len = cur.varint_usize()?;
            let raw = cur.take(len)?;
            let name = std::str::from_utf8(raw)
                .map_err(|e| corrupt(cur.pos(), format_args!("symbol is not utf-8: {e}")))?;
            if let Some(dictionary) = &mut dictionary {
                dictionary.push(Symbol::intern(name));
            }
        }
        let records = cur.varint()?;
        let payload_len = cur.varint_usize()?;
        let payload_start = cur.pos();
        cur.take(payload_len)?;
        // No record is shorter than `MIN_RECORD_BYTES`, so a count past
        // what the payload can hold is a lie — caught before it sizes
        // anything.
        let records = usize::try_from(records)
            .ok()
            .filter(|&n| n <= payload_len / MIN_RECORD_BYTES)
            .ok_or_else(|| {
                corrupt(
                    payload_start,
                    format_args!("{records} records cannot fit a {payload_len}-byte payload"),
                )
            })?;
        shards.push(ShardSummary {
            device,
            symbols,
            records,
            payload: payload_start..cur.pos(),
        });
    }

    let uvm = match cur.u8()? {
        0 => None,
        1 => Some(decode_uvm(&mut cur)?),
        b => return Err(corrupt(cur.pos(), format_args!("bad uvm-footer flag {b}"))),
    };
    let end = cur.take(8)?;
    if end != END_MAGIC {
        return Err(corrupt(
            cur.pos(),
            format_args!("missing end marker (file written but never finished?)"),
        ));
    }
    if cur.remaining() != 0 {
        return Err(corrupt(
            cur.pos(),
            format_args!("{} trailing bytes after end marker", cur.remaining()),
        ));
    }
    Ok(TraceSummary { shards, uvm })
}

/// A trace whose framing held: its summary, and every shard's dictionary
/// interned, back to back in shard order.
pub(crate) struct Framed<'a> {
    bytes: &'a [u8],
    pub(crate) summary: TraceSummary,
    pub(crate) dictionary: Vec<Symbol>,
}

impl<'a> Framed<'a> {
    pub(crate) fn read(bytes: &'a [u8]) -> Result<Self, TraceError> {
        let mut dictionary = Vec::new();
        let summary = frames(bytes, Some(&mut dictionary))?;
        Ok(Framed {
            bytes,
            summary,
            dictionary,
        })
    }

    /// Each shard's summary with its own dictionary, in file order.
    pub(crate) fn dictionaries(&self) -> impl Iterator<Item = (&ShardSummary, &[Symbol])> {
        let mut names = self.dictionary.as_slice();
        self.summary.shards.iter().map(move |shard| {
            let (own, rest) = names.split_at(shard.symbols);
            names = rest;
            (shard, own)
        })
    }

    /// A record reader per shard, in file order.
    pub(crate) fn shards(&self) -> impl Iterator<Item = ShardRecords<'_>> {
        self.dictionaries().map(|(shard, names)| ShardRecords {
            device: shard.device,
            decoder: ShardDecoder::new(names),
            cur: Cursor::at(self.bytes, shard.payload.start),
            left: shard.records,
            payload: shard.payload.clone(),
        })
    }
}

/// The records of one shard, not yet decoded. The cursor runs over the
/// whole trace, so offsets in errors are offsets into the file.
pub(crate) struct ShardRecords<'a> {
    pub(crate) device: DeviceId,
    decoder: ShardDecoder<'a>,
    cur: Cursor<'a>,
    left: usize,
    payload: Range<usize>,
}

impl ShardRecords<'_> {
    /// Records still to decode.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// Decodes up to `max` of the records left onto the end of `out` and
    /// says whether more remain. After the last one the records must have
    /// filled the payload exactly. On an error `out` holds every record
    /// before the bad one.
    pub(crate) fn decode(&mut self, out: &mut Vec<Event>, max: usize) -> Result<bool, TraceError> {
        debug_assert!(max > 0, "a zero batch would never finish the shard");
        let n = self.left.min(max);
        self.decoder.decode_batch(&mut self.cur, out, n)?;
        self.left -= n;
        if self.left > 0 {
            return Ok(true);
        }
        if self.cur.pos() != self.payload.end {
            return Err(corrupt(
                self.cur.pos(),
                format_args!(
                    "shard payload length mismatch: header says {}, records consumed {}",
                    self.payload.len(),
                    self.cur.pos() - self.payload.start
                ),
            ));
        }
        Ok(false)
    }
}

/// A fully decoded trace.
#[derive(Debug)]
pub struct TraceReader {
    shards: Vec<TraceShard>,
    uvm: Option<UvmReport>,
    symbol_count: usize,
}

impl TraceReader {
    /// Validates the framing of `bytes` — header, dictionaries, shard
    /// lengths, UVM footer, end marker — and returns what the shard
    /// headers declare, decoding no record and interning no name: the
    /// allocation is one entry per shard however long the streams are.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::parse`], short of what only decoding a record
    /// finds.
    pub fn scan(bytes: &[u8]) -> Result<TraceSummary, TraceError> {
        frames(bytes, None)
    }

    /// Parses and validates `bytes` end to end: the framing first (so a
    /// truncated trace is refused before any record is decoded), then
    /// every shard's records.
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
    /// traces whose framing was read as far as their dictionaries.
    pub fn parse(bytes: &[u8]) -> Result<TraceReader, TraceError> {
        let framed = Framed::read(bytes)?;
        let mut shards = Vec::with_capacity(framed.summary.shards.len());
        for mut records in framed.shards() {
            let mut events = Vec::with_capacity(records.left().min(RESERVE_EVENTS));
            records.decode(&mut events, usize::MAX)?;
            shards.push(TraceShard {
                device: records.device,
                events,
            });
        }
        // One table, so distinct names are distinct addresses.
        let mut dictionary = framed.dictionary;
        dictionary.sort_unstable_by_key(|name| name.as_str().as_ptr());
        dictionary.dedup_by(|a, b| Symbol::ptr_eq(a, b));
        Ok(TraceReader {
            shards,
            uvm: framed.summary.uvm,
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
