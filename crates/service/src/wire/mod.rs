//! The framed binary wire protocol — the daemon's canonical surface.
//!
//! Every exchange with the planning daemon is a sequence of
//! length-prefixed **frames** ([`frame`]): a fixed 12-byte header (magic,
//! protocol version, frame kind, payload length — all little-endian)
//! followed by a payload whose schema is determined by the kind
//! ([`schema`]). The same bytes flow over every transport — the in-process
//! duplex pipe the load generator and tests use, and the TCP listener
//! behind `carp-service --listen` — so "it worked in the test" and "it
//! works on the socket" are the same claim.
//!
//! Layering (bottom-up):
//!
//! * [`codec`] — bounds-checked little-endian readers/writers over byte
//!   slices; every multi-byte integer on the wire goes through these.
//! * [`frame`] — the header, the frame kinds, [`frame::read_frame`] /
//!   [`frame::write_frame`], and [`WireError`]: *every* malformed input is
//!   a clean typed error, never a panic (pinned by the fuzz tests).
//! * [`schema`] — payload encode/decode for submissions, acks, plan
//!   replies (with [`schema::RouteView`], a zero-copy view over a route
//!   payload), advance/cancel, and the metrics snapshot.
//! * [`client`] — [`WireClient`], a blocking client over any
//!   `Read + Write` pair; what loadgen and the CLI speak.
//!
//! Determinism note: the protocol is strictly request/reply per
//! connection for control frames, while plan replies stream back in
//! commit order; the client buffers out-of-order replies by request id.
//! Admission order — the thing that pins the committed route set — is
//! fixed by submission acks being answered synchronously in frame order
//! (DESIGN.md §14).
//!
//! Durability of a `Planned` reply (with a changeset log attached): the
//! commit was journaled — `write(2)` of its record into the OS page cache
//! — *before* the reply was sent, but it is not yet `fsync`ed. The journal
//! fsyncs every [`WalConfig::fsync_every`](crate::wal::WalConfig::fsync_every) = 64
//! appends, on [`WalJournal::seal`](crate::wal::WalJournal::seal) and
//! tenant close, on epoch bumps and on compaction. So a daemon *process*
//! crash loses no acked commit, while an OS crash or power loss can lose
//! up to 63 acked commits across all tenants of the shared journal.

pub mod client;
pub mod codec;
pub mod frame;
pub mod schema;

pub use client::{WireClient, WireSubmitError};
pub use frame::{
    read_frame, write_frame, FrameDecoder, FrameKind, WireError, HEADER_LEN, MAX_PAYLOAD, VERSION,
};
pub use schema::{AckStatus, LogChunkView, PlanVerdict, RouteView};
