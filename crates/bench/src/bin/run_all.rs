//! Run every table/figure harness in sequence (set HGS_SCALE to trade
//! fidelity for speed, e.g. HGS_SCALE=0.2).
fn main() {
    use hgs_bench::experiments as e;
    let t0 = std::time::Instant::now();
    e::table1();
    e::fig11();
    e::fig12();
    e::fig13a();
    e::fig13b();
    e::fig13c();
    e::fig14a();
    e::fig14b();
    e::fig14c();
    e::fig15a();
    e::fig15b();
    e::fig15c();
    e::fig16();
    e::fig17();
    e::ablation_arity();
    e::ablation_timespan();
    e::ablation_horizontal();
    eprintln!("# run_all finished in {:.1}s", t0.elapsed().as_secs_f64());
}
