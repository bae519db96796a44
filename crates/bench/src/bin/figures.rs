//! Prints the paper's tables and figures (all of them, or the named ones)
//! as tables, as the marked blocks of EXPERIMENTS.md (`--md`) or as the
//! text of EXPERIMENTS.json (`--json`).
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin figures -- fig6 table1
//! cargo run --release -p snapedge-bench --bin figures -- --json > EXPERIMENTS.json
//! ```

use snapedge_bench::figures::{self, FIGURES};
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let known: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    let bad_flag = flags.iter().find(|f| !["--json", "--md"].contains(f));
    if let Some(arg) = bad_flag.or(names.iter().find(|n| !known.contains(n))) {
        eprintln!("usage: figures [<name>...] [--json|--md]   (unknown: {arg})");
        eprintln!("figures: {}", known.join(" "));
        std::process::exit(2);
    }

    let rows = figures::rows(&names)?;
    if flags.contains(&"--json") {
        print!("{}", figures::json(&rows));
        return Ok(());
    }
    for (name, _) in FIGURES {
        let table = figures::render(&rows, name);
        if table.is_empty() {
            continue;
        }
        if flags.contains(&"--md") {
            println!("<!-- figures:{name} -->\n{table}<!-- /figures -->\n");
        } else {
            println!("== {name}\n\n{table}");
        }
    }

    // Fig. 1 is pictures: the tiles go to disk beside the row output.
    if names.is_empty() || names.contains(&"fig1") {
        let dir = Path::new("target/fig1");
        std::fs::create_dir_all(dir)?;
        for (label, _, _, image) in figures::fig1_panels()? {
            let file = dir.join(format!("{}.pgm", label.replace('/', "_")));
            std::fs::write(file, image.to_pgm())?;
        }
        eprintln!("fig1: wrote the feature-map tiles to target/fig1/*.pgm");
    }
    Ok(())
}
