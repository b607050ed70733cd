//! Extension — scaling the covert channel across additional GPU pairs.
//!
//! The paper (Sec. I): "Using additional parallelism (e.g., involving
//! additional GPUs) can further improve bandwidth, but we did not explore
//! this in this paper." This extension explores it: independent
//! trojan/spy pairs on disjoint NVLink-adjacent GPU pairs carry disjoint
//! message shards concurrently; their L2s are disjoint, so aggregate
//! bandwidth scales nearly linearly with the number of pairs.

use gpubox_attacks::covert::{bits_from_bytes, stripe_bits, unstripe_bits};
use gpubox_attacks::timing_re::measure_timing;
use gpubox_attacks::{
    align_classes, classify_pages, paired_sets, AlignmentConfig, BoundaryPolicy, ChannelParams,
    L2SetMedium, Locality, Pipeline, ScanConfig, SetPair, Transmission,
};
use gpubox_bench::report;
use gpubox_sim::{Engine, GpuId, MultiGpuSystem, ProcessCtx, ProcessId, SystemConfig};

/// Golden `(bit_errors, fnv1a(received))` at 1, 2, 3 and 4 GPU pairs,
/// captured at commit 5dbd860, before the pairs' transmissions moved
/// onto the shared staged path. Any drift is a regression.
const GOLDEN: [(usize, u64); 4] = [
    (51, 0x4acf_5061_a4ad_2ec4),
    (43, 0xd7dd_7c57_cc81_2d12),
    (43, 0x6cbc_2186_25e9_cce0),
    (42, 0xc37c_e8a1_b794_4759),
];

/// Prepares one trojan/spy pair on (target, spy) GPUs inside a shared box.
fn prepare_pair(
    sys: &mut MultiGpuSystem,
    target: GpuId,
    spy_gpu: GpuId,
    sets: usize,
) -> (
    ProcessId,
    ProcessId,
    Vec<SetPair>,
    gpubox_attacks::Thresholds,
) {
    let timing = measure_timing(sys, target, spy_gpu, 48).expect("timing");
    let trojan = sys.create_process(target);
    let spy = sys.create_process(spy_gpu);
    sys.enable_peer_access(spy, target).expect("peer");
    let bytes = 16 * 1024 * 1024u64;
    let page = sys.config().page_size;
    let tclasses = {
        let mut ctx = ProcessCtx::new(sys, trojan, 0);
        let b = ctx.malloc_on(target, bytes).unwrap();
        classify_pages(
            &mut ctx,
            b,
            bytes,
            page,
            128,
            16,
            &timing.thresholds,
            Locality::Local,
                &ScanConfig::classify_default(),
        )
        .unwrap()
    };
    let sclasses = {
        let mut ctx = ProcessCtx::new(sys, spy, 0);
        let b = ctx.malloc_on(target, bytes).unwrap();
        classify_pages(
            &mut ctx,
            b,
            bytes,
            page,
            128,
            16,
            &timing.thresholds,
            Locality::Remote,
                &ScanConfig::classify_default(),
        )
        .unwrap()
    };
    let matches = align_classes(
        sys,
        trojan,
        &tclasses,
        spy,
        &sclasses,
        16,
        &AlignmentConfig::default(),
    )
    .unwrap();
    let pairs = paired_sets(&tclasses, &sclasses, &matches, sets, 16)
        .into_iter()
        .map(|(t, s)| SetPair { trojan: t, spy: s })
        .collect();
    (trojan, spy, pairs, timing.thresholds)
}

fn main() {
    report::header(
        "Extension — multi-GPU-pair covert channel (the paper's future work)",
        "independent pairs (0<-1), (2<-3), (4<-5), (6<-7) transmit concurrently",
    );
    let gpu_pairs = [(0u8, 1u8), (2, 3), (4, 5), (6, 7)];
    let params = ChannelParams::default();
    let vote = Pipeline::vote(BoundaryPolicy::TwoMeans);
    let payload = bits_from_bytes(&vec![0xC3u8; 600]);
    let mut rows = Vec::new();

    for n in 1..=gpu_pairs.len() {
        let mut sys = MultiGpuSystem::new(SystemConfig::dgx1().with_seed(999));
        let mut endpoints = Vec::new();
        for &(t, s) in &gpu_pairs[..n] {
            endpoints.push(prepare_pair(&mut sys, GpuId::new(t), GpuId::new(s), 4));
        }
        // Shard the payload over pairs, each pair stripes over its 4 sets.
        let shards = stripe_bits(&payload, n);
        let media: Vec<L2SetMedium<'_>> = endpoints
            .iter()
            .map(|(trojan, spy, pairs, thr)| L2SetMedium {
                trojan: *trojan,
                spy: *spy,
                pairs,
                thresholds: *thr,
            })
            .collect();
        let mut txs = Vec::new();
        for (medium, shard) in media.iter().zip(&shards) {
            let tx = Transmission::prepare(&mut sys, medium, shard, &params, &vote);
            txs.push(tx.expect("prepare"));
        }
        let mut eng = Engine::new(&mut sys);
        for tx in &mut txs {
            tx.install(&mut eng, 0);
        }
        let until = txs.iter().map(Transmission::grace_end).max().expect("n >= 1 pairs");
        let end = eng.run(until).expect("engine");
        drop(eng);

        // Decode shard by shard.
        let decoded_shards: Vec<Vec<u8>> =
            txs.iter().map(|tx| tx.report(&sys, end).received).collect();
        let received = unstripe_bits(&decoded_shards, payload.len());
        let errors = received
            .iter()
            .zip(&payload)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            (errors, report::fnv1a_bits(&received)),
            GOLDEN[n - 1],
            "{n} pairs: decoded stream diverged from the golden"
        );
        let secs = sys.latency_model().cycles_to_seconds(end);
        let bw = payload.len() as f64 / 8.0 / secs / 1e3;
        rows.push((
            n,
            format!("{bw:.1} KB/s"),
            format!("{:.2}%", errors as f64 / payload.len() as f64 * 100.0),
        ));
    }

    report::table3(("GPU pairs", "aggregate bandwidth", "error"), &rows);
    println!(
        "\nbandwidth scales with independent GPU pairs — each pair's channel\n\
              lives in a different L2, so they do not contend with each other."
    );
}
