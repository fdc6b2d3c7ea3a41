//! # rbd-tagtree — tag-tree construction and fan-out analysis
//!
//! Implements Section 3 and Appendix A of *Record-Boundary Discovery in Web
//! Documents* (Embley, Jiang & Ng, SIGMOD 1999):
//!
//! 1. **Normalization** ([`stream`]): discard "useless" tags (comments /
//!    `<!…>` markup and end-tags with no corresponding start-tag) and
//!    insert every *missing end-tag*. A start-tag without an end-tag gets a
//!    synthetic end-tag at the paper's position `L` — the location of the
//!    next tag after the start-tag — so its region covers only the
//!    start-tag and the plain text that immediately follows it.
//! 2. **Tree construction** ([`stream`], driven by [`builder`]): the same
//!    pass builds the tag tree while the tokenizer's tokens arrive, with
//!    no token or event list in between. Each node is the paper's
//!    `[G, I, O]` triple: start-tag `G`, inner text `I` (between `G` and the
//!    next tag) and trailing text `O` (between `G`'s end-tag and the next
//!    tag).
//! 3. **Analysis** ([`tree`]): locate the highest-fan-out subtree, classify
//!    each child start-tag as *irrelevant* (appearance count below 10 % of
//!    the subtree's tag total) or *candidate*, and expose the subtree's
//!    start tags as one arena slice ([`TagTree::descendant_tags`]): a
//!    subtree is the contiguous run of nodes after its root, each tag
//!    carries its interned name and text-arena offset, and the heuristic
//!    view fills every per-candidate table in one pass over it.
//!
//! The whole pipeline is `O(n)` in the document length, matching the paper's
//! complexity claim (verified empirically by `rbd-bench`'s `complexity`
//! bench).
//!
//! ## Example — the paper's Figure 2
//!
//! ```
//! use rbd_tagtree::TagTreeBuilder;
//!
//! let html = "<html><head><title>C</title></head><body>\
//!   <table><tr><td>\
//!   <h1>Funeral Notices</h1> Oct 1 <hr>\
//!   <b>A</b><br> died; services at <b>X</b>. <hr>\
//!   <b>B</b><br> died; services at <b>Y</b>. <hr>\
//!   <b>C</b><br> died; services at <b>Z</b>. <hr>\
//!   </td></tr></table></body></html>";
//! let tree = TagTreeBuilder::default().build(html);
//! let fanout = tree.highest_fanout();
//! assert_eq!(tree.name(fanout), "td");
//! let cands = tree.candidate_tags(fanout, 0.10);
//! let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
//! assert!(names.contains(&"hr") && names.contains(&"b") && names.contains(&"br"));
//! assert!(!names.contains(&"h1")); // irrelevant: below the 10 % threshold
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod stream;
pub mod tree;

pub use builder::TagTreeBuilder;
pub use stream::NormalizeStats;
pub use tree::{CandidateTag, Node, NodeId, TagTree, TreeBudget, TreeError};
