//! # hmm-server — permutation-as-a-service over a std-only TCP protocol
//!
//! The plan cache is the asset: König/BMMC compilation is expensive
//! once, then every caller streams payloads through the cached plan.
//! [`SharedEngine`](hmm_native::SharedEngine) already amortizes it
//! across threads of one process; this crate is the network front door
//! that amortizes it across *processes* — the fourth front door beside
//! the blocking API, the counted `run_job` path, and the batch path.
//!
//! Layering (all `std`, no async runtime — the workspace's
//! vendored-deps constraint):
//!
//! * [`proto`] — the v2 frame grammar: length-prefixed bodies,
//!   checksums from `hmm_perm::hash` (the hash that seals `hmm-plan`
//!   plan files; v1 frames sealed with FNV-1a are still read and
//!   answered), typed [`ErrCode`]s. Decoding never panics and never
//!   allocates more than [`proto::MAX_BODY`] on hostile input.
//! * [`framing`] — frame I/O over `Read`/`Write`: one reader into a
//!   reused body buffer, one writer that builds a whole frame in a
//!   reused buffer, seals it and sends it in one write.
//! * [`admission`] — per-session quotas (registered plans, jobs per
//!   request), checked before anything touches the engine.
//! * [`server`] — thread-per-connection accept loop; each connection
//!   gets a private handle namespace. `PERMUTE` and `PERMUTE_BATCH` run
//!   on their session's thread through the engine's counted,
//!   panic-isolated job path, permuting the request body's wire bytes
//!   as byte lanes straight into the reply frame.
//! * [`client`] — the blocking typed client.
//!
//! ```no_run
//! use hmm_server::{Client, Server, ServerConfig};
//! use hmm_perm::families;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let p = families::bit_reversal(1 << 10).unwrap();
//! let handle = client.register::<u32>(&p).unwrap();
//! let src: Vec<u32> = (0..1u32 << 10).collect();
//! let out = client.permute(&handle, &src).unwrap();
//! assert_eq!(out[p.apply(3)], src[3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod client;
pub mod framing;
pub mod proto;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionError};
pub use client::{Client, ClientError, PlanHandle};
pub use framing::{
    read_frame, read_frame_into, read_frame_versioned, write_frame, write_frame_versioned,
    write_permute,
};
pub use proto::{
    bytes_to_elems, elems_to_bytes, Elem, ErrCode, Frame, PermRepr, ProtoError, ServerStats,
    MAX_BATCH, MAX_BODY, MAX_ERR_MSG, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerError};
