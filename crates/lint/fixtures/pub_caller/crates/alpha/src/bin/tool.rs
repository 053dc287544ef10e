fn main() {
    alpha::by_bin();
}
