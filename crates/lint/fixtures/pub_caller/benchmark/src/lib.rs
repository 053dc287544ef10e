pub fn unlinted_and_uncalled() {
    alpha::by_benchmark();
}
