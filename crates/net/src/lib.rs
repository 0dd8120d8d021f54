//! # ipactive-net
//!
//! Foundation types for IPv4 address-space analytics: addresses, CIDR
//! prefixes, `/24` block identifiers, sorted address sets with range
//! queries, a binary radix trie keyed by prefixes, compact day/address
//! bitsets, and the *smallest covering mask* primitive used to size
//! address churn events (Richter et al., IMC 2016, Section 4.2).
//!
//! Everything in this crate is deliberately dependency-free, allocation
//! conscious, and exhaustively unit- and property-tested: all higher
//! layers (the CDN observatory simulator, the BGP substrate, the
//! analysis library) are built on these primitives.
//!
//! ## Quick tour
//!
//! ```
//! use ipactive_net::{Addr, Prefix, Block24};
//!
//! let a: Addr = "192.0.2.17".parse().unwrap();
//! let p: Prefix = "192.0.2.0/24".parse().unwrap();
//! assert!(p.contains(a));
//! assert_eq!(Block24::of(a).network(), "192.0.2.0".parse().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
mod addr;
mod bitset;
mod block;
mod covering;
mod prefix;
mod set;
mod tiered;
mod trie;

pub use active::{ActiveSet, SetBuilder};
pub use addr::{Addr, ParseAddrError};
pub use bitset::{AddrBits256, DayBits};
pub use block::Block24;
pub use covering::{covering_mask, EventSizeHistogram};
pub use prefix::{ParsePrefixError, Prefix};
pub use set::{AddrSet, RefSetBuilder};
pub use tiered::{PrefixDensity, ReprCensus, TieredSet, TieredSetBuilder, SPARSE_MAX};
pub use trie::PrefixTrie;

/// The sorted-`Vec` reference backend — the differential oracle every
/// other [`ActiveSet`] implementation is property-tested against.
pub type RefSet = AddrSet;
