pub(super) fn up() -> u32 {
    here()
}

pub(in crate::inner) fn here() -> u32 {
    2
}
