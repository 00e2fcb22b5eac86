//! `knactorctl` — the operator CLI for the Knactor framework.
//!
//! ```text
//! knactorctl schema validate <file>       check a schema file, list external fields
//! knactorctl schema show <file>           parse and re-render a schema
//! knactorctl dxg validate <file>          parse a DXG spec and run static analysis
//! knactorctl dxg plan <file>              show the consolidated execution plan
//! knactorctl dxg udf <file>               export the DXG as pushdown UDF assignments
//! knactorctl diff <old> <new>             diff two DXGs + composer dry-run of edge actions
//! knactorctl codegen <schema-file>        generate typed Rust accessors
//! knactorctl metrics <addr> [--watch|--prom]  scrape a live exchange's metrics
//! knactorctl serve [--shards N] [--port P]    run exchange shard nodes
//! knactorctl serve --replicas N [--port P]    run a leader + N replicating followers
//! ```

mod codegen;
mod metrics;
mod serve;

use knactor_dxg::{analyze, Dxg, Plan, Severity};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match arg_strs.as_slice() {
        ["schema", "validate", file] => schema_validate(file),
        ["schema", "show", file] => schema_show(file),
        ["dxg", "validate", file] => dxg_validate(file),
        ["dxg", "plan", file] => dxg_plan(file),
        ["dxg", "udf", file] => dxg_udf(file),
        ["dxg", "diff", old, new] => dxg_diff(old, new),
        ["diff", old, new] => composer_diff(old, new),
        ["codegen", file] => codegen_cmd(file),
        ["metrics", addr] => metrics::run(addr, false, false),
        ["metrics", addr, "--watch"] | ["metrics", "--watch", addr] => {
            metrics::run(addr, true, false)
        }
        ["metrics", addr, "--prom"] | ["metrics", "--prom", addr] => {
            metrics::run(addr, false, true)
        }
        ["serve", rest @ ..] => serve_cmd(rest),
        ["help"] | ["--help"] | ["-h"] | [] => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {}\n", other.join(" "));
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "knactorctl — operate knactors, validate specs, generate code\n\n\
     USAGE:\n\
     \u{20}   knactorctl schema validate <file>\n\
     \u{20}   knactorctl schema show <file>\n\
     \u{20}   knactorctl dxg validate <file>\n\
     \u{20}   knactorctl dxg plan <file>\n\
     \u{20}   knactorctl dxg udf <file>\n\
     \u{20}   knactorctl dxg diff <old> <new>\n\
     \u{20}   knactorctl diff <old> <new>\n\
     \u{20}   knactorctl codegen <schema-file>\n\
     \u{20}   knactorctl metrics <addr> [--watch|--prom]\n\
     \u{20}   knactorctl serve [--shards N] [--port P]\n\
     \u{20}   knactorctl serve --replicas N [--port P]\n"
        .to_string()
}

/// Parse `serve` flags: `--shards N` (default 1), `--replicas N`
/// (leader + N followers; exclusive with `--shards`), and `--port P`
/// (default 7070, consecutive ports for the remaining nodes).
fn serve_cmd(rest: &[&str]) -> ExitCode {
    let mut shards = 1usize;
    let mut replicas: Option<usize> = None;
    let mut port = 7070u16;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<&str>| -> Option<String> {
            it.next().map(|v| v.to_string())
        };
        match *flag {
            "--shards" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) => shards = n,
                None => {
                    eprintln!("--shards needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--replicas" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) => replicas = Some(n),
                None => {
                    eprintln!("--replicas needs a follower count");
                    return ExitCode::FAILURE;
                }
            },
            "--port" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(p) => port = p,
                None => {
                    eprintln!("--port needs a port number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown serve flag: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if replicas.is_some() && shards != 1 {
        eprintln!("--replicas and --shards are exclusive: a node set either shards or replicates");
        return ExitCode::FAILURE;
    }
    let nodes = replicas.map_or(shards, |followers| followers.saturating_add(1));
    if last_port(port, nodes).is_none() {
        eprintln!(
            "--port {port} leaves no room for {nodes} nodes on consecutive ports \
             (the last would pass 65535): lower --port, --shards or --replicas"
        );
        return ExitCode::FAILURE;
    }
    match replicas {
        Some(followers) => serve::run_replicated(followers, port),
        None => serve::run(shards, port),
    }
}

/// The port of the last of `nodes` nodes on consecutive ports from
/// `first`, or `None` when it would pass 65535.
fn last_port(first: u16, nodes: usize) -> Option<u16> {
    let offset = u16::try_from(nodes.saturating_sub(1)).ok()?;
    first.checked_add(offset)
}

fn read(file: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(file).map_err(|e| {
        eprintln!("cannot read {file}: {e}");
        ExitCode::FAILURE
    })
}

fn schema_validate(file: &str) -> ExitCode {
    let text = match read(file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match knactor_core::parse_schema(&text) {
        Ok(schema) => {
            println!("schema {} is valid", schema.name);
            println!("  {} fields", schema.fields.len());
            let external: Vec<&str> = schema.external_fields().map(|f| f.name.as_str()).collect();
            if external.is_empty() {
                println!("  no external fields (nothing for integrators to fill)");
            } else {
                println!(
                    "  external fields (integrator-filled): {}",
                    external.join(", ")
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid schema: {e}");
            ExitCode::FAILURE
        }
    }
}

fn schema_show(file: &str) -> ExitCode {
    let text = match read(file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match knactor_core::parse_schema(&text) {
        Ok(schema) => {
            print!("{}", knactor_core::schema_to_yaml(&schema));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid schema: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_dxg(file: &str) -> Result<Dxg, ExitCode> {
    let text = read(file)?;
    Dxg::parse(&text).map_err(|e| {
        eprintln!("invalid DXG: {e}");
        ExitCode::FAILURE
    })
}

fn dxg_validate(file: &str) -> ExitCode {
    let dxg = match load_dxg(file) {
        Ok(d) => d,
        Err(code) => return code,
    };
    println!(
        "DXG parsed: {} inputs, {} assignments",
        dxg.inputs.len(),
        dxg.assignments.len()
    );
    let analysis = analyze::analyze(&dxg);
    if analysis.findings.is_empty() {
        println!("static analysis: clean");
    }
    for f in &analysis.findings {
        let tag = match f.severity {
            Severity::Error => "ERROR",
            Severity::Warning => "WARN ",
            Severity::Info => "INFO ",
        };
        println!("  {tag} [{}] {}", f.code, f.message);
    }
    if analysis.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn dxg_plan(file: &str) -> ExitCode {
    let dxg = match load_dxg(file) {
        Ok(d) => d,
        Err(code) => return code,
    };
    match Plan::build(&dxg) {
        Ok(plan) => {
            println!(
                "plan: {} assignments consolidated into {} write steps",
                plan.assignment_count(),
                plan.write_ops()
            );
            for (i, step) in plan.steps.iter().enumerate() {
                println!("  step {} -> {}", i + 1, step.target_alias);
                for &idx in &step.assignments {
                    let a = &dxg.assignments[idx];
                    println!("      {} = {}", a.write_ref(), a.source.trim());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot plan: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dxg_udf(file: &str) -> ExitCode {
    let dxg = match load_dxg(file) {
        Ok(d) => d,
        Err(code) => return code,
    };
    match Plan::build(&dxg) {
        Ok(plan) => {
            println!("inputs: {}", Plan::udf_inputs(&dxg).join(", "));
            for a in plan.to_udf_assignments(&dxg) {
                println!("  {}.{} := {}", a.target_alias, a.target_path, a.expr);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot export: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dxg_diff(old: &str, new: &str) -> ExitCode {
    let (old, new) = match (load_dxg(old), load_dxg(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let changes = knactor_dxg::diff(&old, &new);
    if changes.is_empty() {
        println!("specs are equivalent (no exchange-level changes)");
        return ExitCode::SUCCESS;
    }
    println!("{} exchange-level change(s):", changes.len());
    for c in &changes {
        println!("  {c}");
    }
    ExitCode::SUCCESS
}

fn composer_diff(old: &str, new: &str) -> ExitCode {
    let (old, new) = match (load_dxg(old), load_dxg(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let changes = knactor_dxg::diff(&old, &new);
    if changes.is_empty() {
        println!("specs are equivalent (no exchange-level changes)");
    } else {
        println!("{} exchange-level change(s):", changes.len());
        for c in &changes {
            println!("  {c}");
        }
    }
    // Dry-run: what a live Composer::apply of the new spec would do to a
    // system currently running the old one, edge by edge.
    println!("\ncomposer dry-run (per-edge actions):");
    let mut counts = std::collections::BTreeMap::new();
    for (alias, action) in knactor_core::cast_edge_actions(&old, &new) {
        println!("  cast:{alias:<12} {action}");
        *counts.entry(action.to_string()).or_insert(0u32) += 1;
    }
    let summary: Vec<String> = counts.iter().map(|(a, n)| format!("{n} {a}")).collect();
    println!("  => {}", summary.join(", "));
    ExitCode::SUCCESS
}

fn codegen_cmd(file: &str) -> ExitCode {
    let text = match read(file) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match knactor_core::parse_schema(&text) {
        Ok(schema) => {
            print!("{}", codegen::generate(&schema));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("invalid schema: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_refuses_ports_past_65535() {
        assert_eq!(last_port(7070, 4), Some(7073));
        assert_eq!(last_port(65535, 1), Some(65535));
        assert_eq!(last_port(0, 65_536), Some(65535));
        assert_eq!(last_port(65535, 2), None);
        // 65,537 nodes need an offset that does not fit in a port at all.
        assert_eq!(last_port(0, 65_537), None);
        for flags in [
            ["--port", "65535", "--shards", "2"],
            ["--port", "65535", "--replicas", "1"],
        ] {
            assert_eq!(serve_cmd(&flags), ExitCode::FAILURE, "{flags:?}");
        }
    }
}
