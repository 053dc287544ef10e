//! The declaring crate of the `pub-needs-caller` fixture workspace.

mod inner;

/// Nothing names it.
pub fn dead() {}

/// Only this file's unit tests name it.
pub fn tested_only() -> u32 {
    1
}

/// Only this crate's own code names it.
pub fn helper() -> u32 {
    inner::up()
}

/// Other files name it only in comments and strings.
pub fn mentioned() {}

/// Nothing names it.
pub static TABLE: [u8; 2] = [0, 1];

/// # Safety
/// Nothing: the body does no unsafe work.
pub unsafe fn risky() {}

/// Nothing names it.
pub extern "C" fn exported() {}

// lint:allow(pub-needs-caller): read by a program outside this workspace
pub fn allowed() {}

// lint:allow(pub-needs-caller)
pub fn reasonless() {}

pub fn by_other_crate() -> u32 {
    helper()
}

pub fn by_benchmark() {}

pub fn by_example() {}

pub fn by_bin() {}

pub fn by_own_tests() {}

pub const fn by_root_src() -> u32 {
    3
}

pub const LIMIT: usize = 4;

pub(crate) fn narrowed() {}

pub trait Shape {
    fn area(&self) -> u32;
}

pub struct Square;

impl Shape for Square {
    fn area(&self) -> u32 {
        narrowed();
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tested() {
        assert_eq!(tested_only(), 1);
    }
}
