//! Golden digests: the simulation loop's output, pinned.
//!
//! Every [`SimResult`] and provenance stream below is reduced to a 64-bit
//! FNV-1a digest over a canonical byte encoding (maps sorted by key) and
//! compared against a recorded value. The matrix is every
//! [`PredictorKind`] with per-branch tracking on, plus the warmup edge
//! cases (no warmup, the default third, all warmup) on two more
//! workloads, plus the provenance stream of three representative kinds.
//! Any change to what the loop measures, or to how a predictor predicts
//! and trains, moves a digest here.
//!
//! A failing assertion prints the whole table of current digests, so an
//! intended change of semantics can re-pin it in one paste.

use llbp_core::{LlbpParams, LlbpPredictor};
use llbp_sim::{
    CancelToken, LlbpCellStats, PredictorKind, ProvConfig, ProvRecorder, SimConfig, SimResult,
};
use llbp_tage::classic::{Gshare, HashedPerceptron, TwoLevelLocal};
use llbp_tage::{Predictor, TageScl, TslConfig};
use llbp_trace::{Trace, Workload, WorkloadSpec};

/// One instance of every `PredictorKind` variant, small enough for a
/// debug-mode test run.
fn every_kind() -> Vec<PredictorKind> {
    vec![
        PredictorKind::Tsl64K,
        PredictorKind::TslScaled(2),
        PredictorKind::InfTage,
        PredictorKind::InfTsl,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::CustomTsl(TslConfig::cbp64k()),
        PredictorKind::Gshare { index_bits: 12, history_bits: 12 },
        PredictorKind::TwoLevelLocal { bht_bits: 10, local_bits: 10 },
        PredictorKind::HashedPerceptron { tables: 4, index_bits: 10, segment_bits: 8 },
    ]
}

/// Digests recorded when three execution tiers (a scalar reference loop
/// and two specialized fast loops) all reproduced them bit for bit.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("tracked/Tomcat/0/64K TSL", 0x27ca32ad17422b0c),
    ("tracked/Tomcat/1/128K TSL", 0x3bc145131cfd7f04),
    ("tracked/Tomcat/2/Inf TAGE", 0xe5078f9a33f72747),
    ("tracked/Tomcat/3/Inf TSL", 0x5115dca303b39f15),
    ("tracked/Tomcat/4/LLBP", 0xa262a6ff9ccac6dc),
    ("tracked/Tomcat/5/64K TSL", 0x27ca32ad17422b0c),
    ("tracked/Tomcat/6/gshare-12b", 0xb54a8e69a6a4f0ad),
    ("tracked/Tomcat/7/2level-10x10", 0x4605362b28e34221),
    ("tracked/Tomcat/8/perceptron-4x10b", 0xa9e63ab7df40c5e0),
    ("split/Kafka/w0.000/64K TSL", 0x6ac11b007507c944),
    ("split/Kafka/w0.000/LLBP", 0x116cab5b9d4241fe),
    ("split/Kafka/w0.333/64K TSL", 0x988fca1b6265ed78),
    ("split/Kafka/w0.333/LLBP", 0x8be237482a5c4ef5),
    ("split/Kafka/w1.000/64K TSL", 0xce81773493dac663),
    ("split/Kafka/w1.000/LLBP", 0x2bdae9ec87606972),
    ("split/HTTP/w0.000/64K TSL", 0x6714b61f2bed7d2d),
    ("split/HTTP/w0.000/LLBP", 0xe8b044a617cd2004),
    ("split/HTTP/w0.333/64K TSL", 0x47985bf521ac7001),
    ("split/HTTP/w0.333/LLBP", 0xa281e2e964382e38),
    ("split/HTTP/w1.000/64K TSL", 0x8db7f6679d7ae84e),
    ("split/HTTP/w1.000/LLBP", 0x3c9ccd57cb4315e5),
    ("prov/Tomcat/64K TSL/result", 0x7c29ac5993847cb2),
    ("prov/Tomcat/64K TSL/llpv", 0x047868170778a34e),
    ("prov/Tomcat/LLBP/result", 0xb5449d8cb9f7c129),
    ("prov/Tomcat/LLBP/llpv", 0xad38e59216f128be),
    ("prov/Tomcat/gshare-12b/result", 0x951aa4c41af991c8),
    ("prov/Tomcat/gshare-12b/llpv", 0xc7fd055099b7b9ec),
];

/// FNV-1a 64 over a canonical encoding of `bytes`.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }

    fn map<K: Ord + Copy, F: Fn(&mut Self, K)>(
        &mut self,
        map: impl Iterator<Item = (K, u64)>,
        key: F,
    ) {
        let mut entries: Vec<(K, u64)> = map.collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        self.u64(entries.len() as u64);
        for (k, v) in entries {
            key(self, k);
            self.u64(v);
        }
    }

    fn finish(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.0 {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn result_digest(r: &SimResult) -> u64 {
    let mut d = Digest::default();
    d.bytes(r.label.as_bytes());
    d.bytes(r.workload.as_bytes());
    d.u64(r.instructions);
    d.u64(r.conditional_branches);
    d.u64(r.mispredictions);
    d.map(r.provider_counts.iter().map(|(&k, &v)| (k, v)), |d, k| d.bytes(k.as_bytes()));
    for map in [&r.per_branch_mispredicts, &r.per_branch_executions] {
        match map {
            None => d.u64(0),
            Some(m) => {
                d.u64(1);
                d.map(m.iter().map(|(&k, &v)| (k, v)), Digest::u64);
            }
        }
    }
    match &r.llbp {
        None => d.u64(0),
        Some(s) => {
            d.u64(1);
            d.bytes(format!("{s:?}").as_bytes());
        }
    }
    d.finish()
}

fn trace(workload: Workload, branches: usize) -> Trace {
    WorkloadSpec::named(workload).with_branches(branches).generate()
}

/// Every pinned case, by name, with its current digest.
fn current() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let tomcat = trace(Workload::Tomcat, 2_500);
    let tracked = SimConfig { warmup_fraction: 0.25, track_per_branch: true };
    for (i, kind) in every_kind().into_iter().enumerate() {
        let r = tracked.run(kind.clone(), &tomcat);
        out.push((format!("tracked/{}/{i}/{}", tomcat.name(), kind.label()), result_digest(&r)));
    }
    for workload in [Workload::Kafka, Workload::Http] {
        let t = trace(workload, 2_500);
        for warmup_fraction in [0.0, 1.0 / 3.0, 1.0] {
            let cfg = SimConfig { warmup_fraction, track_per_branch: false };
            for kind in [PredictorKind::Tsl64K, PredictorKind::Llbp(LlbpParams::default())] {
                let r = cfg.run(kind.clone(), &t);
                out.push((
                    format!("split/{}/w{warmup_fraction:.3}/{}", t.name(), kind.label()),
                    result_digest(&r),
                ));
            }
        }
    }
    let t = trace(Workload::Tomcat, 6_000);
    for kind in [
        PredictorKind::Tsl64K,
        PredictorKind::Llbp(LlbpParams::default()),
        PredictorKind::Gshare { index_bits: 12, history_bits: 8 },
    ] {
        let mut recorder = ProvRecorder::enabled(ProvConfig { sample: 2, ring: 8192 });
        let r = SimConfig::default()
            .run_recorded(
                kind.clone(),
                &t,
                &CancelToken::none(),
                &llbp_sim::obs::Counter::noop(),
                &mut recorder,
            )
            .expect("an inert token never cancels");
        let stream = recorder.finish("l", "w").expect("recorder is enabled");
        let mut d = Digest::default();
        d.bytes(&llbp_sim::prov::encode_stream(&stream));
        out.push((format!("prov/{}/{}/result", t.name(), kind.label()), result_digest(&r)));
        out.push((format!("prov/{}/{}/llpv", t.name(), kind.label()), d.finish()));
    }
    out
}

#[test]
fn every_case_matches_its_golden_digest() {
    let got = current();
    let table: String =
        got.iter().map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n")).collect();
    let expected: Vec<(String, u64)> =
        GOLDEN.iter().map(|&(name, digest)| (name.to_string(), digest)).collect();
    assert!(got == expected, "the simulation drifted; current digests:\n{table}");
}

/// Builds `kind` behind the trait object the open-predictor entry point
/// takes.
fn build(kind: &PredictorKind) -> Box<dyn Predictor> {
    match kind {
        PredictorKind::Tsl64K => Box::new(TageScl::new(TslConfig::cbp64k())),
        PredictorKind::TslScaled(f) => Box::new(TageScl::new(TslConfig::scaled(*f))),
        PredictorKind::InfTage => Box::new(TageScl::new(TslConfig::infinite_tage())),
        PredictorKind::InfTsl => Box::new(TageScl::new(TslConfig::infinite_tsl())),
        PredictorKind::CustomTsl(cfg) => Box::new(TageScl::new(cfg.clone())),
        PredictorKind::Llbp(p) => Box::new(LlbpPredictor::new(p.clone())),
        PredictorKind::Gshare { index_bits, history_bits } => {
            Box::new(Gshare::new(*index_bits, *history_bits))
        }
        PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
            Box::new(TwoLevelLocal::new(*bht_bits, *local_bits))
        }
        PredictorKind::HashedPerceptron { tables, index_bits, segment_bits } => {
            Box::new(HashedPerceptron::new(*tables, *index_bits, *segment_bits))
        }
    }
}

#[test]
fn run_predictor_on_a_trait_object_matches_run() {
    let tomcat = trace(Workload::Tomcat, 2_500);
    let cfg = SimConfig { warmup_fraction: 0.25, track_per_branch: true };
    for kind in every_kind() {
        let expected = cfg.run(kind.clone(), &tomcat);
        let got = if let PredictorKind::Llbp(params) = &kind {
            // The LLBP-internal statistics live on the concrete type; a
            // caller holding it attaches them the way `run` does.
            let mut llbp = LlbpPredictor::new(params.clone());
            let mut r = cfg.run_predictor(&mut llbp as &mut dyn Predictor, &tomcat);
            assert_eq!(r.llbp, None, "the open entry point cannot see LLBP internals");
            r.llbp = Some(LlbpCellStats {
                llbp: llbp.stats().clone(),
                frontend: *llbp.frontend().stats(),
            });
            r
        } else {
            cfg.run_predictor(build(&kind).as_mut(), &tomcat)
        };
        assert_eq!(got, expected, "{kind:?}");
    }
}
