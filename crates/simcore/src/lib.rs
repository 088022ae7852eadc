//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the Themis reproduction: a small,
//! allocation-lean, fully deterministic discrete-event simulation (DES)
//! kernel. Everything above it (links, switches, RNICs, collective
//! workloads) is expressed as events scheduled on the [`engine::Engine`].
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same configuration and seed produce
//!   bit-identical results. The event heap breaks time ties by insertion
//!   sequence number, and randomness comes from explicit, per-component
//!   [`rng::Xoshiro256`] streams derived from a root seed.
//! * **Throughput.** Figure-5 experiments schedule tens of millions of
//!   events; the hot path is a sliding timer-wheel push/pop of a small POD
//!   struct (see [`event`]), and hot id-keyed tables use the SipHash-free
//!   [`fx`] hasher.
//! * **No global state.** The engine is a plain value owned by the caller;
//!   there are no thread-locals or singletons, so tests can run many
//!   simulations in parallel.
//!
//! The crate deliberately knows nothing about networking — it provides time
//! ([`time::Nanos`]), ordered event delivery ([`event::EventQueue`]),
//! pseudo-randomness ([`rng`]) and measurement utilities ([`stats`]).

pub mod engine;
pub mod event;
pub mod fx;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::Engine;
pub use event::{EventQueue, Scheduled};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{Nanos, TimeDelta};
