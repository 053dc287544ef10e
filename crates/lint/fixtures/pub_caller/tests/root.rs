#[test]
fn limit() {
    assert_eq!(alpha::LIMIT, 4);
}
