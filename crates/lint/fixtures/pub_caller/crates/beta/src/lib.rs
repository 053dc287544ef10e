//! A second crate: its names are callers of `alpha`'s items.

/// Calls into `alpha`; `mentioned` appears here only in this comment.
pub fn use_alpha() -> u32 {
    let _ = "mentioned";
    alpha::by_other_crate()
}
