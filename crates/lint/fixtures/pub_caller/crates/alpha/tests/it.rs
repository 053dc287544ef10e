#[test]
fn own_tests_are_callers() {
    alpha::by_own_tests();
}
