/// Its field shares a name with `alpha::shadowed` without calling it.
struct Holder {
    shadowed: u32,
}

fn main() {
    alpha::by_example();
    beta::use_alpha();
    let holder = Holder { shadowed: 2 };
    let shadowed = holder.shadowed;
    assert_eq!(shadowed, 2);
}
