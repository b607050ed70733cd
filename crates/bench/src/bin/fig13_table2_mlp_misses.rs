//! Table II + Fig. 13 — MLP hidden-layer extraction via miss counts.
//!
//! Trains the MLP victim at hidden widths 64/128/256/512 while the spy
//! monitors 1024 cache sets; the average misses per set grows monotonically
//! with width (paper: 5653 / 6846 / 8744 / 10197), separating the
//! configurations. Exits 1 unless the misses are monotone in width.

use gpubox_attacks::side::{record_memorygram, summarize_mlp_gram, RecorderConfig};
use gpubox_bench::{report, setup::victim_with_duration, SideChannelSetup};
use gpubox_sim::GpuId;
use gpubox_workloads::MlpTraining;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    neurons: usize,
    avg_misses_per_set: f64,
    total_misses: u64,
    paper_avg: u64,
}

fn main() {
    report::header(
        "Table II / Fig. 13 — MLP hidden-layer width vs. cache misses (1024 monitored sets)",
        "Sec. V-B: avg misses 5653/6846/8744/10197 for 64/128/256/512 neurons",
    );
    let mut setup = SideChannelSetup::prepare(1313, 1024);
    let paper = [(64usize, 5653u64), (128, 6846), (256, 8744), (512, 10197)];
    let mut rows = Vec::new();
    for &(neurons, paper_avg) in &paper {
        let victim = setup.sys.create_process(GpuId::new(0));
        let w = MlpTraining::with_hidden(neurons);
        let (agent, duration) = victim_with_duration(&mut setup.sys, victim, &w);
        setup.sys.flush_l2(GpuId::new(0));
        let gram = record_memorygram(
            &mut setup.sys,
            setup.spy,
            &setup.monitored,
            setup.thresholds,
            &RecorderConfig {
                duration,
                sweep_gap: 0,
            },
            vec![Box::new(agent)],
        )
        .expect("memorygram");
        let stats = summarize_mlp_gram(&gram);
        rows.push(Row {
            neurons,
            avg_misses_per_set: stats.avg_misses_per_set,
            total_misses: stats.total_misses,
            paper_avg,
        });
    }

    println!();
    report::table3(
        ("neurons", "avg misses/set", "paper avg"),
        &rows
            .iter()
            .map(|r| {
                (
                    r.neurons,
                    format!("{:.1}", r.avg_misses_per_set),
                    r.paper_avg,
                )
            })
            .collect::<Vec<_>>(),
    );

    println!("\nFig. 13-style intensity (avg misses/set, scaled):");
    let max = rows
        .iter()
        .map(|r| r.avg_misses_per_set)
        .fold(0.0, f64::max);
    for r in &rows {
        println!(
            "{:>4} neurons | {}",
            r.neurons,
            report::bar(r.avg_misses_per_set, max, 50)
        );
    }
    let monotone = rows
        .windows(2)
        .all(|w| w[1].avg_misses_per_set > w[0].avg_misses_per_set);
    println!("\nshape check: misses monotone in hidden width = {monotone} (paper: yes)");
    report::write_json("table2_mlp_misses", &rows);
    if !monotone {
        eprintln!("GATE FAILED: average misses per set are not monotone in hidden width");
        std::process::exit(1);
    }
}
