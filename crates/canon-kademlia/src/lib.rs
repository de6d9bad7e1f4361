//! Kademlia's bucket choice (paper §3.3).
//!
//! Kademlia defines the distance between two nodes as the integer value of
//! the XOR of their identifiers. Each node keeps, for every distance band
//! `[2^k, 2^(k+1))` (a *bucket* — the nodes agreeing with it on the top
//! `63 - k` bits and differing at bit `63 - k`), a link to one node of the
//! band. Routing greedily diminishes the XOR distance, fixing identifier
//! bits left to right. (Real Kademlia keeps several links per bucket for
//! resilience; like the paper, we ignore replication here.)
//!
//! "One link per non-empty bucket" has a single implementation,
//! `canon::kandy::KandyRule`: over a hierarchy it builds Kandy, over one
//! domain flat Kademlia (`canon::kandy::build_kademlia`). What remains here
//! is the one parameter of that rule.

#![forbid(unsafe_code)]

/// How a node picks its link within a bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BucketChoice {
    /// The XOR-closest member of the bucket (deterministic; this makes the
    /// link set a pure function of the node set, which Kandy's tests rely
    /// on).
    #[default]
    Closest,
    /// A uniformly random member (Kademlia's nondeterministic freedom).
    Random,
}
