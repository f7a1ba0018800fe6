//! The typed error hierarchy of the placement flow.
//!
//! [`PlaceError`] has one variant per stage of Algorithm 1, each wrapping
//! that stage's own error enum, so callers can match on *where* a run
//! failed and on the precise cause — and the `mmp` CLI maps each stage to
//! a distinct exit code (see [`PlaceError::exit_code`]). Transient trouble
//! (deadline expiry, NaN evaluations, LP failures) is **not** an error:
//! those paths degrade gracefully and surface through
//! [`crate::DegradationReport`]. An `Err` from
//! [`crate::MacroPlacer::place`] always means the input or configuration
//! is unusable.

use crate::degrade::Stage;
use crate::report::ReportError;
use mmp_ckpt::CkptError;
use mmp_cluster::ClusterError;
use mmp_legal::LegalizeError;
use mmp_mcts::EnsembleError;
use mmp_pool::PoolError;
use mmp_rl::TrainError;
use std::error::Error;
use std::fmt;

/// Preprocessing failures: the design cannot enter the flow at all.
#[derive(Debug, Clone, PartialEq)]
pub enum PreprocessError {
    /// The design's region cannot host its macros (sum of macro areas
    /// exceeds the region area).
    MacrosExceedRegion {
        /// Total macro area of the design.
        macro_area: f64,
        /// Area of the placement region.
        region_area: f64,
    },
    /// Clustering/coarsening rejected the design.
    Cluster(ClusterError),
    /// The configured compute-pool worker count is unusable (zero, or past
    /// the pool's hard cap). Caught before any stage runs.
    Pool(PoolError),
    /// The grid resolution ζ is 0: a 0×0 grid has no action space.
    /// Caught before any stage runs.
    ZeroZeta,
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::MacrosExceedRegion {
                macro_area,
                region_area,
            } => write!(
                f,
                "total macro area exceeds the placement region ({macro_area:.1} > {region_area:.1})"
            ),
            PreprocessError::Cluster(e) => write!(f, "{e}"),
            PreprocessError::Pool(e) => write!(f, "compute pool configuration: {e}"),
            PreprocessError::ZeroZeta => write!(f, "grid resolution zeta must be at least 1"),
        }
    }
}

impl Error for PreprocessError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PreprocessError::Cluster(e) => Some(e),
            PreprocessError::Pool(e) => Some(e),
            PreprocessError::MacrosExceedRegion { .. } | PreprocessError::ZeroZeta => None,
        }
    }
}

/// Search-stage failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// `ensemble_runs` was configured as 0 — no search can run.
    NoRuns,
    /// Every ensemble worker panicked; there is no surviving run to take a
    /// result from. (A *partial* loss degrades gracefully instead — see
    /// [`crate::DegradationReport`].)
    AllWorkersPanicked {
        /// Workers launched (and lost).
        runs: usize,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NoRuns => write!(f, "ensemble_runs is 0: no search would run"),
            SearchError::AllWorkersPanicked { runs } => {
                write!(f, "all {runs} ensemble workers panicked; no surviving run")
            }
        }
    }
}

impl Error for SearchError {}

impl From<EnsembleError> for SearchError {
    fn from(e: EnsembleError) -> Self {
        match e {
            EnsembleError::NoRuns => SearchError::NoRuns,
            EnsembleError::AllWorkersPanicked { runs } => SearchError::AllWorkersPanicked { runs },
        }
    }
}

/// Final-cell-placement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinalPlaceError {
    /// The cell placer returned non-finite coordinates — the numerical
    /// guards upstream should make this unreachable, so reaching it means
    /// the placement cannot be trusted and is refused rather than written
    /// out.
    NonFinitePlacement {
        /// Number of nodes with a non-finite coordinate.
        nodes: usize,
    },
}

impl fmt::Display for FinalPlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinalPlaceError::NonFinitePlacement { nodes } => {
                write!(
                    f,
                    "final placement has {nodes} nodes at non-finite coordinates"
                )
            }
        }
    }
}

impl Error for FinalPlaceError {}

/// Flow-level failure: which stage failed, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// Preprocessing (feasibility, clustering) failed.
    Preprocess(PreprocessError),
    /// RL pre-training failed.
    Train(TrainError),
    /// MCTS placement optimization failed.
    Search(SearchError),
    /// Macro legalization failed.
    Legalize(LegalizeError),
    /// Final cell placement failed.
    FinalPlace(FinalPlaceError),
    /// Result aggregation / report emission failed (malformed table
    /// input or an unwritable report).
    Report(ReportError),
    /// Checkpoint persistence or resume failed: unwritable checkpoint
    /// directory, or a corrupt/truncated/stale-version/mismatched resume
    /// checkpoint. Never raised when checkpointing is not requested.
    Checkpoint(CkptError),
}

impl PlaceError {
    /// The stage the error belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            PlaceError::Preprocess(_) => Stage::Preprocess,
            PlaceError::Train(_) => Stage::Train,
            PlaceError::Search(_) => Stage::Search,
            PlaceError::Legalize(_) => Stage::Legalize,
            PlaceError::FinalPlace(_) => Stage::FinalPlace,
            PlaceError::Report(_) => Stage::Report,
            PlaceError::Checkpoint(_) => Stage::Checkpoint,
        }
    }

    /// `true` when retrying the same job may legitimately succeed.
    ///
    /// The placer is deterministic: for almost every failure, re-running
    /// the identical input reproduces the identical error, so retrying is
    /// pure waste — those are **permanent** (bad design, bad config,
    /// numerical refusal). Two classes are **transient**, because their
    /// cause lives outside the computation:
    ///
    /// - [`CkptError::Io`] under [`PlaceError::Checkpoint`] (directly or
    ///   surfaced through [`TrainError::Checkpoint`]): the filesystem
    ///   refused a read or write — disk pressure, a yanked volume, or an
    ///   injected mid-run kill. The checkpoints already on disk make the
    ///   retry cheaper than the first attempt, not just possible.
    /// - [`SearchError::AllWorkersPanicked`]: every ensemble worker died,
    ///   which the deterministic search itself cannot cause — it signals
    ///   environmental pressure (e.g. OOM kills) on the worker threads.
    ///
    /// Every other variant — including non-`Io` checkpoint damage such as
    /// a corrupt or version-stale file, which re-reading will refuse
    /// again byte-for-byte — is permanent. `mmpd` uses this split for its
    /// retry policy: transient failures back off and retry, permanent
    /// ones are reported immediately, and a job that stays transient past
    /// the attempt cap is quarantined.
    pub fn is_transient(&self) -> bool {
        match self {
            PlaceError::Checkpoint(e) | PlaceError::Train(TrainError::Checkpoint(e)) => {
                matches!(e, CkptError::Io { .. })
            }
            PlaceError::Search(SearchError::AllWorkersPanicked { .. }) => true,
            _ => false,
        }
    }

    /// The CLI exit code for this error: a distinct non-zero code per
    /// stage (10–16), leaving 1 for generic I/O errors and 2 for usage
    /// errors.
    pub fn exit_code(&self) -> u8 {
        match self {
            PlaceError::Preprocess(_) => 10,
            PlaceError::Train(_) => 11,
            PlaceError::Search(_) => 12,
            PlaceError::Legalize(_) => 13,
            PlaceError::FinalPlace(_) => 14,
            PlaceError::Report(_) => 15,
            PlaceError::Checkpoint(_) => 16,
        }
    }
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Preprocess(e) => write!(f, "preprocess: {e}"),
            PlaceError::Train(e) => write!(f, "train: {e}"),
            PlaceError::Search(e) => write!(f, "search: {e}"),
            PlaceError::Legalize(e) => write!(f, "legalize: {e}"),
            PlaceError::FinalPlace(e) => write!(f, "final-place: {e}"),
            PlaceError::Report(e) => write!(f, "report: {e}"),
            PlaceError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl Error for PlaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlaceError::Preprocess(e) => Some(e),
            PlaceError::Train(e) => Some(e),
            PlaceError::Search(e) => Some(e),
            PlaceError::Legalize(e) => Some(e),
            PlaceError::FinalPlace(e) => Some(e),
            PlaceError::Report(e) => Some(e),
            PlaceError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CkptError> for PlaceError {
    fn from(e: CkptError) -> Self {
        PlaceError::Checkpoint(e)
    }
}

impl From<ReportError> for PlaceError {
    fn from(e: ReportError) -> Self {
        PlaceError::Report(e)
    }
}

impl From<LegalizeError> for PlaceError {
    fn from(e: LegalizeError) -> Self {
        PlaceError::Legalize(e)
    }
}

impl From<SearchError> for PlaceError {
    fn from(e: SearchError) -> Self {
        PlaceError::Search(e)
    }
}

impl From<FinalPlaceError> for PlaceError {
    fn from(e: FinalPlaceError) -> Self {
        PlaceError::FinalPlace(e)
    }
}

/// A trainer error is a *preprocessing* failure when its cause is the
/// clustering of the input design, a *checkpoint* failure when a snapshot
/// could not be written or restored, and a *training* failure otherwise.
impl From<TrainError> for PlaceError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Cluster(c) => PlaceError::Preprocess(PreprocessError::Cluster(c)),
            TrainError::Checkpoint(c) => PlaceError::Checkpoint(c),
            other => PlaceError::Train(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_non_zero() {
        let errs = [
            PlaceError::Preprocess(PreprocessError::MacrosExceedRegion {
                macro_area: 2.0,
                region_area: 1.0,
            }),
            PlaceError::Train(TrainError::ZetaMismatch { net: 4, env: 8 }),
            PlaceError::Search(SearchError::NoRuns),
            PlaceError::Legalize(LegalizeError::AssignmentMismatch {
                expected: 3,
                got: 0,
            }),
            PlaceError::FinalPlace(FinalPlaceError::NonFinitePlacement { nodes: 7 }),
            PlaceError::Report(ReportError::EmptyRows),
            PlaceError::Checkpoint(CkptError::BadMagic {
                path: "x.ckpt".to_owned(),
            }),
        ];
        let mut codes: Vec<u8> = errs.iter().map(PlaceError::exit_code).collect();
        assert!(codes.iter().all(|&c| c != 0 && c != 1 && c != 2));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "exit codes must be distinct");
    }

    #[test]
    fn messages_name_the_stage_and_cause() {
        let e = PlaceError::Preprocess(PreprocessError::MacrosExceedRegion {
            macro_area: 162.0,
            region_area: 100.0,
        });
        let msg = e.to_string();
        assert!(msg.contains("preprocess"));
        assert!(msg.contains("macro area"));
        assert_eq!(e.stage(), Stage::Preprocess);

        let e = PlaceError::from(TrainError::ZetaMismatch { net: 4, env: 8 });
        assert!(e.to_string().contains("train"));
        assert_eq!(e.stage(), Stage::Train);
    }

    #[test]
    fn cluster_cause_maps_to_preprocess() {
        let e = PlaceError::from(TrainError::Cluster(
            mmp_cluster::ClusterError::UngroupedMovableMacro {
                name: "m3".to_owned(),
            },
        ));
        assert_eq!(e.stage(), Stage::Preprocess);
        assert_eq!(e.exit_code(), 10);
        assert!(e.to_string().contains("m3"));
    }

    #[test]
    fn source_chain_reaches_the_stage_error() {
        let e = PlaceError::Search(SearchError::NoRuns);
        let src = std::error::Error::source(&e).expect("has source");
        assert!(src.to_string().contains("ensemble_runs"));
    }

    #[test]
    fn checkpoint_errors_map_to_exit_16() {
        let e = PlaceError::from(CkptError::Truncated {
            path: "train.ckpt".to_owned(),
            expected: 100,
            got: 12,
        });
        assert_eq!(e.exit_code(), 16);
        assert_eq!(e.stage(), Stage::Checkpoint);
        assert!(e.to_string().starts_with("checkpoint:"));
        // A sink failure surfacing through the trainer keeps the
        // checkpoint classification, not the train one.
        let e = PlaceError::from(TrainError::Checkpoint(CkptError::Io {
            path: "ck".to_owned(),
            detail: "disk full".to_owned(),
        }));
        assert_eq!(e.exit_code(), 16);
    }

    #[test]
    fn transiency_split_is_exhaustive_and_conservative() {
        // Transient: environmental causes a retry can outlive.
        assert!(PlaceError::Checkpoint(CkptError::Io {
            path: "train.ckpt".to_owned(),
            detail: "disk full".to_owned(),
        })
        .is_transient());
        assert!(PlaceError::Train(TrainError::Checkpoint(CkptError::Io {
            path: "train.ckpt".to_owned(),
            detail: "yanked volume".to_owned(),
        }))
        .is_transient());
        assert!(PlaceError::Search(SearchError::AllWorkersPanicked { runs: 3 }).is_transient());

        // Permanent: deterministic refusals a retry would reproduce.
        let permanent = [
            PlaceError::Preprocess(PreprocessError::MacrosExceedRegion {
                macro_area: 2.0,
                region_area: 1.0,
            }),
            PlaceError::Train(TrainError::ZetaMismatch { net: 4, env: 8 }),
            PlaceError::Search(SearchError::NoRuns),
            PlaceError::Legalize(LegalizeError::AssignmentMismatch {
                expected: 3,
                got: 0,
            }),
            PlaceError::FinalPlace(FinalPlaceError::NonFinitePlacement { nodes: 7 }),
            PlaceError::Report(ReportError::EmptyRows),
            // A bad worker count re-validates identically: permanent.
            PlaceError::Preprocess(PreprocessError::Pool(PoolError::ZeroWorkers)),
            // Non-Io checkpoint damage re-reads identically: permanent.
            PlaceError::Checkpoint(CkptError::Corrupt {
                path: "x.ckpt".to_owned(),
                detail: "crc".to_owned(),
            }),
            PlaceError::Checkpoint(CkptError::BadMagic {
                path: "x.ckpt".to_owned(),
            }),
            PlaceError::Checkpoint(CkptError::Truncated {
                path: "x.ckpt".to_owned(),
                expected: 100,
                got: 12,
            }),
            PlaceError::Checkpoint(CkptError::Invalid {
                detail: "fingerprint".to_owned(),
            }),
        ];
        for e in permanent {
            assert!(!e.is_transient(), "{e} must be permanent");
        }
    }

    #[test]
    fn pool_misconfiguration_is_a_preprocess_error() {
        let e = PlaceError::Preprocess(PreprocessError::Pool(PoolError::TooManyWorkers {
            workers: 1000,
            max: mmp_pool::MAX_WORKERS,
        }));
        assert_eq!(e.exit_code(), 10);
        assert_eq!(e.stage(), Stage::Preprocess);
        assert!(e.to_string().contains("preprocess"));
        assert!(e.to_string().contains("1000"));
        let src = std::error::Error::source(&e).expect("has source");
        assert!(
            std::error::Error::source(src).is_some(),
            "chains to PoolError"
        );
    }

    #[test]
    fn ensemble_errors_map_to_search_errors() {
        assert_eq!(
            SearchError::from(EnsembleError::NoRuns),
            SearchError::NoRuns
        );
        let e = SearchError::from(EnsembleError::AllWorkersPanicked { runs: 4 });
        assert_eq!(e, SearchError::AllWorkersPanicked { runs: 4 });
        assert!(e.to_string().contains("panicked"));
    }
}
