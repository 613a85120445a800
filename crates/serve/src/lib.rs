//! Wire-speed serving plane for the §6 prediction-based redirection
//! system: a real authoritative DNS server for trained prediction tables.
//!
//! The paper's CDN answers billions of real DNS queries; everything else
//! in this workspace exercises redirection policies through in-process
//! calls. What the DNS tier of a CDN serves is a compiled client-group →
//! front-end map, so this crate serves exactly that — a trained
//! `PredictionTable` compiled to a [`CompiledTable`] — with zero external
//! dependencies:
//!
//! * [`wire`] / [`message`] — an in-house RFC 1035 codec (header, question,
//!   answer, compressed names on decode) plus EDNS0/RFC 7871 client-subnet
//!   options, bridging [`anycast_dns::DnsAnswer`] and
//!   [`anycast_dns::ecs::EcsOption`] onto real packets, and the one reply
//!   encoder every reply comes from ([`message::encode_reply`]), writing
//!   into the caller's buffer;
//! * [`store`] — trained prediction tables compiled into immutable answer
//!   templates, keyed by the trained table's own group index (so a query
//!   matches the group the table was trained for), hot-swapped
//!   atomically while the server runs — the only thing the server serves;
//! * [`mmsg`] / [`template`] — the million-QPS hot path: batched UDP I/O
//!   via raw `recvmmsg`/`sendmmsg` syscalls (libc-free, with a portable
//!   one-packet fallback behind the same trait), preallocated per-shard
//!   packet arenas, the one zero-alloc query parser
//!   ([`template::QueryView::decode`]) and the answer records baked at
//!   table-compile time, so a reply goes straight into its send slot
//!   without a heap allocation;
//! * [`server`] — a sharded UDP listener (thread-per-worker over cloned
//!   sockets, emulating an SO_REUSEPORT worker set) with a TCP fallback
//!   path for truncated responses and an overload valve that degrades to
//!   the anycast VIP under sustained full batches — the serving-plane
//!   analogue of the paper's "anycast is the safe default" conclusion.
//!   Every packet, on either transport, is parsed, decided and written by
//!   one function, against the one table generation its batch loaded;
//! * [`client`] / [`replay`] — a loopback wire client and a deterministic
//!   day-of-queries generator used by the equivalence tests.
//!
//! Observability follows the workspace obs-neutrality contract: counters
//! and histograms record what happened, and never influence an answer.

// `deny`, not `forbid`: the raw `recvmmsg`/`sendmmsg` syscall shims in
// [`mmsg`] opt back in with an explicit scoped `allow` — the only unsafe
// in the workspace, confined to one audited module.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod message;
pub mod mmsg;
pub mod replay;
pub mod server;
pub mod store;
pub mod template;
pub mod wire;

pub use client::{ServedAnswer, WireClient};
pub use message::{decode_chaos_txt, decode_query, decode_response, encode_query, encode_response};
pub use message::{ChaosText, Edns, WireEcs, WireQuery, WireResponse, CHAOS_METRICS_QNAME};
pub use mmsg::{batch_io, BatchIo, PacketArena};
pub use replay::{day_queries, day_query_plan, ldns_directory, ldns_source_addr, QuerySpec};
pub use server::{DnsServer, LdnsDirectory, ServeConfig, ServeStats};
pub use store::{CompiledTable, TableStore};
pub use template::{AnswerRr, QueryView};
pub use wire::WireError;
