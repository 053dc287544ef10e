//! `gbbench --trace 1` under the name the issue gives it.

fn main() {
    std::process::exit(gbbench::cli::main(Some(true)));
}
