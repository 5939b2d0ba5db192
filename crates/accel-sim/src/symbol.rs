//! Interned symbols for kernel and API names.
//!
//! The event hot path used to clone a heap `String` kernel name into every
//! fine-grained event — millions of allocations per profiled run. A
//! [`Symbol`] is a `Copy` handle onto a string its [`SymbolTable`] owns
//! forever: interning a name allocates (and leaks) it once, every
//! subsequent event carries a 16-byte copy that writes nothing — no
//! refcount, so lanes on different cores never share a written cache line
//! over a name — and equality between symbols of the same table is a
//! pointer compare. Names are immortal on purpose: the global table never
//! forgot one anyway, so a count protected nothing. This crate hosts the
//! type (rather than pasta-core) because
//! [`crate::instrument::TraceCtx`] — the per-launch context every sink
//! callback receives — is the first place a kernel name enters the event
//! pipeline.
//!
//! Symbols from *different* tables still compare correctly (content
//! fallback), so unit tests may use isolated tables while the runtime —
//! live sessions and decoded traces alike — uses [`SymbolTable::global`].
//!
//! [`Symbol::intern`] is called once per operator, kernel descriptor and
//! API name on every lane, so it answers from a small per-thread front
//! first and takes the global table's lock only for a name the thread has
//! not seen (or has since displaced).

use crate::sync::Mutex;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::OnceLock;

/// An interned string (kernel symbol, API name, operator name): a `Copy`
/// handle onto text its table leaked once. Copying writes nothing,
/// dropping does nothing, and comparing two symbols of the same table is
/// O(1).
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

/// Slots in the per-thread intern front.
const FRONT_SLOTS: usize = 256;
/// Slots probed from a name's home slot before the home slot is
/// overwritten — keeps two hot names that share a home from evicting
/// each other on every call.
const FRONT_PROBES: usize = 4;

thread_local! {
    /// The calling thread's front of the global table: symbols *of that
    /// table* (so [`Symbol::ptr_eq`] stays valid), placed by a hash of
    /// their content and matched by content.
    static FRONT: RefCell<[Option<Symbol>; FRONT_SLOTS]> =
        const { RefCell::new([const { None }; FRONT_SLOTS]) };
}

/// Home slot of `name` in the front: an FxHash-style fold over the
/// bytes, eight at a time.
fn front_home(name: &str) -> usize {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hash = name.len() as u64;
    for chunk in name.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = (hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    (hash >> (u64::BITS - FRONT_SLOTS.trailing_zeros())) as usize
}

impl Symbol {
    /// Interns `name` in the process-global table. A name this thread
    /// interned before is answered from the thread's front — no lock, no
    /// allocation; [`SymbolTable::intern`] is the one slow path.
    pub fn intern(name: &str) -> Symbol {
        let slow = || SymbolTable::global().intern(name);
        FRONT
            .try_with(|front| {
                let mut front = front.borrow_mut();
                let home = front_home(name);
                for probe in 0..FRONT_PROBES {
                    let slot = &mut front[(home + probe) % FRONT_SLOTS];
                    match slot {
                        Some(symbol) if symbol.as_str() == name => return *symbol,
                        Some(_) => {}
                        None => return *slot.insert(slow()),
                    }
                }
                *front[home].insert(slow())
            })
            // The thread is exiting and its front is gone.
            .unwrap_or_else(|_| slow())
    }

    /// The underlying string.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// True when both symbols share one allocation — the O(1) fast path
    /// that also proves a name was interned once, not re-allocated per
    /// event.
    pub fn ptr_eq(a: &Symbol, b: &Symbol) -> bool {
        std::ptr::eq(a.0, b.0)
    }
}

impl Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.0
    }
}

/// Lets `HashMap<Symbol, _>` answer `&str` lookups without interning.
impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        // Same-table symbols hit the pointer compare; cross-table symbols
        // (isolated test tables, deserialized events) fall back to content.
        Symbol::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for Symbol {}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

/// Hashes like `str` so `Borrow<str>` lookups stay consistent.
impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

/// A deduplicating string interner. Thread-safe; `intern` takes a lock, so
/// hot paths should intern once per launch and copy the [`Symbol`].
#[derive(Debug, Default)]
pub struct SymbolTable {
    entries: Mutex<HashSet<&'static str>>,
}

impl SymbolTable {
    /// An empty table (isolated, for unit tests). Each distinct name a
    /// table interns is leaked once and outlives the table, so nothing
    /// outside tests should make one: the runtime interns into
    /// [`SymbolTable::global`].
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// The process-global table behind [`Symbol::intern`].
    pub fn global() -> &'static SymbolTable {
        static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
        GLOBAL.get_or_init(SymbolTable::new)
    }

    /// Interns `name`: returns the existing symbol when the table has seen
    /// the name before, otherwise allocates it once, for the life of the
    /// process.
    pub fn intern(&self, name: &str) -> Symbol {
        let mut entries = self.entries.lock();
        if let Some(existing) = entries.get(name) {
            return Symbol(existing);
        }
        let text: &'static str = Box::leak(Box::from(name));
        entries.insert(text);
        Symbol(text)
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn symbol_is_a_sixteen_byte_copy_handle_without_drop_glue() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Symbol>();
        assert!(!std::mem::needs_drop::<Symbol>());
        assert_eq!(std::mem::size_of::<Symbol>(), 16);
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 16);
    }

    #[test]
    fn interning_dedups_to_one_allocation() {
        let table = SymbolTable::new();
        let a = table.intern("ampere_sgemm_128x64_tn");
        let b = table.intern("ampere_sgemm_128x64_tn");
        let c = table.intern("im2col_kernel");
        assert!(Symbol::ptr_eq(&a, &b), "same name, same allocation");
        assert!(!Symbol::ptr_eq(&a, &c));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn copies_share_the_allocation() {
        let a = Symbol::intern("clone_shares");
        let b = a;
        assert!(Symbol::ptr_eq(&a, &b));
    }

    #[test]
    fn cross_table_equality_falls_back_to_content() {
        let t1 = SymbolTable::new();
        let t2 = SymbolTable::new();
        let a = t1.intern("gemm");
        let b = t2.intern("gemm");
        assert!(!Symbol::ptr_eq(&a, &b));
        assert_eq!(a, b, "content equality across tables");
    }

    #[test]
    fn str_interop() {
        let s = Symbol::intern("relu_kernel");
        assert_eq!(s, "relu_kernel");
        assert_eq!(s.as_str(), "relu_kernel");
        assert!(s.contains("relu"), "Deref<Target=str> works");
        assert_eq!(format!("{s}"), "relu_kernel");
        assert_eq!(format!("{s:?}"), "\"relu_kernel\"");
    }

    #[test]
    fn map_lookup_by_str_borrow() {
        use std::collections::HashMap;
        let mut m: HashMap<Symbol, u64> = HashMap::new();
        m.insert(Symbol::intern("gemm"), 3);
        assert_eq!(m.get("gemm"), Some(&3));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn concurrent_interning_dedups() {
        let table = Arc::new(SymbolTable::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| table.intern(&format!("kernel_{}", (i + t) % 16)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(table.len(), 16, "8 threads × 64 interns collapse to 16");
        // Every symbol with the same content shares one allocation.
        let canon: Vec<Symbol> = (0..16)
            .map(|i| table.intern(&format!("kernel_{i}")))
            .collect();
        for row in &all {
            for s in row {
                let c = &canon[s.strip_prefix("kernel_").unwrap().parse::<usize>().unwrap()];
                assert!(Symbol::ptr_eq(s, c));
            }
        }
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Symbol::intern("alpha");
        let z = Symbol::intern("zeta");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }
}
