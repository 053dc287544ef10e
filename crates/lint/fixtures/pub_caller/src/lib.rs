pub fn root() -> u32 {
    alpha::by_root_src()
}
