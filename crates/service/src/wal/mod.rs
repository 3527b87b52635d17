//! Durable changeset log + warm-standby recovery (DESIGN.md §15).
//!
//! Every state transition a tenant's commit worker performs at its
//! commit point — commit, cancel, clock advance
//! (batched retirement), windowed route revision, tenant open/close — is
//! appended to one shared, CRC-framed, append-only log. Replaying the log
//! in sequence order reconstructs the daemon's entire planning state:
//! a standby process does exactly that and finishes the day bit-identical
//! to an uninterrupted run.
//!
//! Layer map:
//!
//! * [`record`] — record framing (`u32 len · u32 crc · payload`), the
//!   [`record::ChangeOp`] vocabulary, and the torn-tail-tolerant decoder.
//! * [`log`] — the file-backed [`log::WalJournal`] (append, fsync
//!   discipline, torn-tail repair on open, snapshot compaction) and the
//!   per-tenant [`log::TenantJournal`] handle the pipelines hold.
//! * [`replay`] — pure state folding ([`replay::ReplayState`]), standby
//!   planner recovery ([`replay::recover_planners`]), the log-level
//!   strict audit ([`replay::audit_log`]), and `ReproBundle` derivation
//!   ([`replay::bundle_from_log`]).

pub mod log;
pub mod record;
pub mod replay;

pub use self::log::{read_log, LogSubscription, TenantJournal, WalConfig, WalJournal, WalStats};
pub use self::record::{ChangeOp, ChangeRecord, LogTail, TenantSnapshot, WalSnapshot};
pub use self::replay::{
    audit_log, bundle_from_log, recover_planners, requests_in_log, ReplayState,
};
