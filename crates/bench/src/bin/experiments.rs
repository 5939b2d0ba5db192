//! Prints the paper's tables and figures: `experiments [NAME…]`, where each
//! `NAME` is an entry of [`pasta_bench::ARTIFACTS`] or `all`. With no
//! argument it runs everything — the artifact-evaluation entry point.
//! An unknown name exits with status 2 and the list of known ones, as
//! does a `PASTA_SCALE` other than `full` or `quick`.
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = pasta_bench::select(&names).unwrap_or_else(|unknown| {
        let known: Vec<&str> = pasta_bench::ARTIFACTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "unknown artifact `{unknown}`: expected `all` or any of {}",
            known.join(" ")
        );
        std::process::exit(2)
    });
    let scale = pasta_bench::ExpScale::from_env().unwrap_or_else(|unknown| {
        eprintln!("unknown PASTA_SCALE `{unknown}`: expected `full` or `quick`");
        std::process::exit(2)
    });
    println!("PASTA experiment suite (scale {scale:?})\n");
    for (_, run) in selected {
        print!("{}\n\n", run(scale)?);
    }
    Ok(())
}
