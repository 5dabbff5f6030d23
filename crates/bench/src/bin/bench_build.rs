//! Build/ingest benchmark: batched parallel construction vs the seed
//! row-at-a-time sequential write path, emitted as JSON
//! (`BENCH_build.json`) so CI and later PRs can track ingest speed
//! and write-batching efficiency.
//!
//! ```text
//! cargo run --release -p hgs-bench --bin bench_build -- BENCH_build.json
//! ```

use hgs_bench::experiments::build_ingest;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_build.json".to_string());
    let rows = build_ingest::build_ingest();
    let mut json = format!(
        "{{\n  \"dataset\": \"WikiGrowth\",\n  \"nproc\": {},\n  \"rows\": [\n",
        hgs_core::build::host_parallelism()
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"clients\": {}, \"build_secs\": {:.5}, \
             \"append_secs\": {:.5}, \"puts\": {}, \"write_batches\": {}, \
             \"rows_per_batch\": {:.1}}}{}\n",
            r.path,
            r.clients,
            r.build_secs,
            r.append_secs,
            r.puts,
            r.write_batches,
            r.rows_per_batch(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    print!("{json}");
}
