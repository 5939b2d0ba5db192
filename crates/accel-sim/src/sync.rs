//! The workspace's one lock type: a mutex that does not poison.
//!
//! A panicking tool callback is caught at the dispatch boundary and the
//! tool quarantined, and a panicking lane is salvaged — both with a shard
//! lock held somewhere up the stack. `std::sync::Mutex` would refuse that
//! lock to everyone afterwards; every structure guarded here is valid at
//! every step of an update, so [`Mutex::lock`] recovers the guard instead
//! and the shard stays usable.
//!
//! Beside it, the work counts: debug builds count each unit of work at a
//! fixed [`Site`] (lock acquisitions among them) in one process-wide
//! table, which `probe -- <scenario> counts` prints for one warm op and
//! the allocation suites pin.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Declares [`Site`], its rows in table order and their names.
macro_rules! sites {
    ($($(#[$doc:meta])* $site:ident = $name:literal,)*) => {
        /// A place whose work debug builds count, one row of [`count`]'s table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Site {
            $($(#[$doc])* $site,)*
        }

        impl Site {
            /// Every site, in table order.
            pub const ALL: &[Site] = &[$(Site::$site),*];

            /// The row's name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Site::$site => $name,)*
                }
            }
        }
    };
}

sites! {
    /// A [`Mutex::lock`].
    Lock = "lock",
    /// A residency index write for pages arriving on a device.
    IndexArrival = "index.arrival",
    /// A residency index write for pages whose run split or joined.
    IndexRelabel = "index.relabel",
    /// A residency index write for evicted pages.
    IndexEviction = "index.eviction",
    /// A residency index write for pages removed outright.
    IndexRemoval = "index.removal",
    /// The residency index grown or merged over arriving pages.
    WindowGrow = "window.grow",
    /// The residency index rebuilt around the resident pages.
    WindowRebuild = "window.rebuild",
    /// A managed allocation looked up by search, not by its base.
    AllocSearch = "alloc.search",
    /// A coherence-directory read claim.
    DirClaim = "directory.claim",
    /// Holder bits dropped from a coherence directory.
    DirDrop = "directory.drop",
    /// A coherence-directory write.
    DirWrite = "directory.write",
}

/// One count per [`Site`], process-wide.
static COUNTS: [AtomicU64; Site::ALL.len()] = [const { AtomicU64::new(0) }; Site::ALL.len()];

/// Counts one unit of work at `site`; a release build counts nothing.
#[inline]
pub fn count(site: Site) {
    if cfg!(debug_assertions) {
        COUNTS[site as usize].fetch_add(1, Relaxed);
    }
}

/// The work counted at `site` in this process so far; `None` in a
/// release build, which does not count.
pub fn counted(site: Site) -> Option<u64> {
    cfg!(debug_assertions).then(|| COUNTS[site as usize].load(Relaxed))
}

/// Mutual exclusion over `std::sync::Mutex` with poisoning recovered.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value it guarded.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        count(Site::Lock);
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_under_the_lock_leaves_it_usable() {
        let m = Mutex::new(vec![1]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = m.lock();
            guard.push(2);
            panic!("tool code");
        }));
        assert!(unwound.is_err());
        m.lock().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }
}
