fn main() {
    std::process::exit(gbbench::cli::main(None));
}
