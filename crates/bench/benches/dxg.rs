//! DXG pipeline costs and the §3.3 integrator ablations:
//!
//! * parse / analyze / plan the Fig. 6 spec
//! * expression evaluation
//! * one full Cast activation — Direct vs UDF pushdown, and consolidated
//!   (one patch per target) vs naive (one patch per assignment)

use criterion::{criterion_group, criterion_main, Criterion};
use knactor_apps::retail::sample_order;
use knactor_core::{Cast, CastBinding, CastConfig, CastMode};
use knactor_dxg::spec::FIG6_RETAIL_DXG;
use knactor_dxg::{Dxg, Plan};
use knactor_expr::{Env, FnRegistry};
use knactor_net::loopback::in_process;
use knactor_net::proto::ProfileSpec;
use knactor_net::ExchangeApi;
use knactor_rbac::Subject;
use knactor_types::{ObjectKey, StoreId};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;

fn rt() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .unwrap()
}

fn bench_spec_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("dxg_spec");
    group.bench_function("parse_fig6", |b| {
        b.iter(|| Dxg::parse(FIG6_RETAIL_DXG).unwrap());
    });
    let dxg = Dxg::parse(FIG6_RETAIL_DXG).unwrap();
    group.bench_function("analyze_fig6", |b| {
        b.iter(|| knactor_dxg::analyze::analyze(&dxg));
    });
    group.bench_function("plan_fig6", |b| {
        b.iter(|| Plan::build(&dxg).unwrap());
    });
    group.finish();
}

fn bench_expr_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("expr_eval");
    let fns = FnRegistry::standard();
    let mut env = Env::new();
    env.bind("C", sample_order(1200.0));
    env.bind(
        "S",
        json!({"quote": {"price": 9.0, "currency": "USD"}, "id": "t"}),
    );
    env.bind("this", json!({"currency": "USD"}));

    for (name, src) in [
        ("member_chain", "C.order.totalCost"),
        (
            "conditional",
            r#""air" if C.order.cost > 1000 else "ground""#,
        ),
        ("comprehension", "[item.name for item in C.order.items]"),
        (
            "currency_convert",
            "currency_convert(S.quote.price, S.quote.currency, this.currency)",
        ),
    ] {
        let expr = knactor_expr::parse_expr(src).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| knactor_expr::eval(&expr, &env, &fns).unwrap());
        });
    }

    // Constant-folding ablation: the same policy with a computed
    // threshold, evaluated raw vs folded at compile time.
    let src = "C.order.cost > 500 * 2 and len(C.order.items) > 2 - 2";
    let raw = knactor_expr::parse_expr(src).unwrap();
    let folded = knactor_expr::fold_constants(&raw, &fns);
    group.bench_function("policy_unfolded", |b| {
        b.iter(|| knactor_expr::eval(&raw, &env, &fns).unwrap());
    });
    group.bench_function("policy_constant_folded", |b| {
        b.iter(|| knactor_expr::eval(&folded, &env, &fns).unwrap());
    });
    group.finish();
}

async fn activation_setup(mode: CastMode) -> (Arc<dyn ExchangeApi>, Cast, CastConfig) {
    let (_, _, client) = in_process(Subject::integrator("bench"));
    let api: Arc<dyn ExchangeApi> = Arc::new(client);
    for s in ["checkout/state", "shipping/state", "payment/state"] {
        api.create_store(StoreId::new(s), ProfileSpec::Instant)
            .await
            .unwrap();
    }
    api.create(
        StoreId::new("checkout/state"),
        ObjectKey::new("o"),
        sample_order(1200.0),
    )
    .await
    .unwrap();
    // Pre-fill the upstream results so every assignment is ready and an
    // activation exercises the full DXG.
    api.patch(
        StoreId::new("shipping/state"),
        ObjectKey::new("o"),
        json!({"id": "t", "quote": {"price": 9.0, "currency": "USD"}}),
        true,
    )
    .await
    .unwrap();
    api.patch(
        StoreId::new("payment/state"),
        ObjectKey::new("o"),
        json!({"id": "p"}),
        true,
    )
    .await
    .unwrap();
    let mut bindings = BTreeMap::new();
    bindings.insert("C".to_string(), CastBinding::correlated("checkout/state"));
    bindings.insert("S".to_string(), CastBinding::correlated("shipping/state"));
    bindings.insert("P".to_string(), CastBinding::correlated("payment/state"));
    let config = CastConfig {
        name: "bench".to_string(),
        dxg: Dxg::parse(FIG6_RETAIL_DXG).unwrap(),
        bindings,
        mode,
    };
    let cast = Cast::new(Arc::clone(&api));
    (api, cast, config)
}

fn bench_activation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cast_activation");
    let runtime = rt();

    let (_api, cast, config) = runtime.block_on(activation_setup(CastMode::Direct));
    let key = ObjectKey::new("o");
    group.bench_function("direct", |b| {
        b.to_async(&runtime)
            .iter(|| cast.activate_once(&config, &key));
    });

    let (_api2, cast2, config2) = runtime.block_on(activation_setup(CastMode::Pushdown {
        udf_name: "bench-dxg".to_string(),
    }));
    group.bench_function("pushdown_udf", |b| {
        b.to_async(&runtime)
            .iter(|| cast2.activate_once(&config2, &key));
    });

    group.finish();
}

/// Consolidation ablation: plan-driven (one patch per target) vs naive
/// (one exchange write per assignment).
fn bench_consolidation(c: &mut Criterion) {
    let mut group = c.benchmark_group("consolidation");
    let runtime = rt();
    let dxg = Dxg::parse(FIG6_RETAIL_DXG).unwrap();
    let plan = Plan::build(&dxg).unwrap();
    assert!(plan.write_ops() < plan.assignment_count());

    let (api, cast, config) = runtime.block_on(activation_setup(CastMode::Direct));
    let key = ObjectKey::new("o");
    group.bench_function("consolidated_plan", |b| {
        b.to_async(&runtime)
            .iter(|| cast.activate_once(&config, &key));
    });

    // Naive: evaluate each assignment and issue an individual patch.
    let fns = FnRegistry::standard();
    group.bench_function("naive_per_assignment", |b| {
        b.to_async(&runtime).iter(|| {
            let api = Arc::clone(&api);
            let dxg = &dxg;
            let fns = &fns;
            let config = &config;
            async move {
                let mut env = Env::new();
                for (alias, binding) in &config.bindings {
                    let v = api
                        .get(binding.store.clone(), ObjectKey::new("o"))
                        .await
                        .map(|o| o.value)
                        .unwrap_or_else(|_| Arc::new(serde_json::Value::Null));
                    env.bind(alias.clone(), v);
                }
                for a in &dxg.assignments {
                    if let Ok(v) = knactor_expr::eval(&a.expr, &env, fns) {
                        if v.is_null() {
                            continue;
                        }
                        let mut patch = serde_json::Value::Object(Default::default());
                        knactor_types::value::set_path(&mut patch, &a.target_path(), v).unwrap();
                        let binding = &config.bindings[&a.target_alias];
                        let _ = api
                            .patch(binding.store.clone(), ObjectKey::new("o"), patch, true)
                            .await;
                    }
                }
            }
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_spec_pipeline,
    bench_expr_eval,
    bench_activation,
    bench_consolidation
);
criterion_main!(benches);
