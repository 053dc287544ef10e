fn main() {
    alpha::by_example();
    beta::use_alpha();
}
