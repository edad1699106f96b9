//! `perfbench --workload W --seed N --seconds S --trace 0|1`: see the
//! crate documentation and `README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    perfbench::run(&args);
}
