//! Regenerates **Table 2**: latency of one shipment request with a
//! per-stage breakdown, across the four setups the paper compares.
//!
//! ```text
//! cargo run -p knactor-bench --bin table2 --release          # full (S ≈ 446 ms)
//! cargo run -p knactor-bench --bin table2 --release -- quick # fast variant
//! ```

use knactor_bench::table2::{render, run_all, Params};

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let params = if quick {
        Params::quick()
    } else {
        Params::default()
    };

    let runtime = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    let rows = runtime.block_on(run_all(&params)).expect("table2 run");

    println!(
        "Table 2: latency completing one shipment request\n(median ±half the interquartile range over {} runs, ms)\n",
        params.iterations
    );
    println!("{}", render(&rows));
    println!("Stage key: C-I = Checkout->integrator (watch delivery), I = integrator");
    println!("compute (or in-exchange UDF), I-S = integrator->Shipping write, S =");
    println!(
        "shipment processing (simulated carrier: {:?}).",
        params.shipment_processing
    );
    println!();
    println!("Paper's measurements (their Kubernetes testbed):");
    println!("  RPC          -     -     -    446  1.8   447.8");
    println!("  K-apiserver  20.6  0.01  12.5 453  33.1  486.1");
    println!("  K-redis      3.2   0.06  2.7  444  5.8   449.8");
    println!("  K-redis-udf  2.1   0.7   0.1  450  2.9   452.9");
}
