//! Instruments installed through the library's public extension
//! points: a [`WalStorage`] around [`FileWal`] and a [`QueryMechanism`]
//! wrapper. Neither changes behaviour; both record child spans when
//! tracing is on.

use crate::trace::{self, Name};
use dplearn_engine::dataset::Dataset;
use dplearn_engine::mechanism::{
    GibbsQuantileMechanism, LaplaceCountMechanism, LaplaceSumMechanism, QueryMechanism,
    SvtRunMechanism,
};
use dplearn_engine::request::{QueryKind, QueryValue};
use dplearn_engine::wal::{FileWal, WalResult, WalStorage};
use dplearn_mechanisms::privacy::Budget;
use dplearn_numerics::rng::Rng;
use std::path::Path;
use std::sync::Arc;

/// A [`FileWal`] whose durability barrier stops at the page cache.
///
/// Frames are written by `FileWal::append` and read back by
/// `FileWal::snapshot`, so encoding, write and replay costs are the
/// library's own. `flush` is counted but does not call `sync_data`:
/// the log must live inside the benchmark's working tree, which sits
/// on a virtual disk where one fsync takes 160–200 µs and varies run
/// to run. Device fsync time is out of the benchmark's scope; this
/// stands in for a RAM-backed log directory, where fsync is a no-op.
pub struct PageCacheWal {
    file: FileWal,
}

impl PageCacheWal {
    /// Open (creating if absent) the log at `path`.
    pub fn open(path: &Path) -> WalResult<Self> {
        Ok(PageCacheWal {
            file: FileWal::open(path)?,
        })
    }
}

impl WalStorage for PageCacheWal {
    fn append(&mut self, frame: &[u8]) -> WalResult<()> {
        trace::timed_child(Name::WalAppend, frame.len() as u64, || {
            self.file.append(frame)
        })
    }

    fn flush(&mut self) -> WalResult<()> {
        trace::timed_child(Name::WalFlush, 0, || Ok(()))
    }

    fn snapshot(&self) -> WalResult<Vec<u8>> {
        trace::timed_child(Name::WalSnapshot, 0, || self.file.snapshot())
    }

    fn truncate(&mut self, len: usize) -> WalResult<()> {
        trace::timed_child(Name::WalTruncate, 0, || self.file.truncate(len))
    }
}

/// Times a built-in mechanism's `admit` and `execute`. It reports the
/// built-in's name, so registering it replaces the built-in.
pub struct TracedMechanism {
    inner: Arc<dyn QueryMechanism>,
    span: Name,
}

impl QueryMechanism for TracedMechanism {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&self, kind: &QueryKind, dataset: &Dataset) -> dplearn_engine::Result<Budget> {
        trace::timed_child(Name::Admit, 0, || self.inner.admit(kind, dataset))
    }

    fn execute(
        &self,
        kind: &QueryKind,
        dataset: &Dataset,
        rng: &mut dyn Rng,
    ) -> dplearn_engine::Result<QueryValue> {
        trace::timed_child(self.span, 0, || self.inner.execute(kind, dataset, rng))
    }
}

/// Wrappers around the four built-ins the serving workloads call.
pub fn traced_mechanisms() -> Vec<Arc<dyn QueryMechanism>> {
    let wrap = |inner: Arc<dyn QueryMechanism>, span| {
        Arc::new(TracedMechanism { inner, span }) as Arc<dyn QueryMechanism>
    };
    vec![
        wrap(Arc::new(LaplaceCountMechanism), Name::MechLaplaceCount),
        wrap(Arc::new(LaplaceSumMechanism), Name::MechLaplaceSum),
        wrap(Arc::new(SvtRunMechanism), Name::MechSvtRun),
        wrap(Arc::new(GibbsQuantileMechanism), Name::MechGibbsQuantile),
    ]
}
