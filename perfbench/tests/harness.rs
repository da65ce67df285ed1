//! Tests of the benchmark harness itself: the order statistics, span
//! self-time subtraction, seeded inputs, and the metric list in
//! `BENCHMARK.json`.

use abft_perfbench::inputs::{campaign_seed, serve_rhs, tealeaf_deck};
use abft_perfbench::stats::{median, Summary};
use abft_perfbench::trace::{self_time_by_layer_ns, self_times_ns, Span, Tracer};
use abft_perfbench::workloads::{campaign_mix, serve_panels, tealeaf_cg};
use abft_perfbench::{END_TO_END, PER_LAYER};

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn summary_reports_median_count_and_the_tail_with_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = Summary::of(&samples).unwrap();
    assert_eq!(s.count, 100);
    assert_eq!(s.median, 50.5);
    // p99 and p95 have 1 and 5 samples beyond them; p90 is the highest
    // with ten.
    let (p, v) = s.tail.unwrap();
    assert_eq!(p, 90.0);
    assert!((v - 90.1).abs() < 1e-9, "{v}");

    let forty: Vec<f64> = (0..40).map(f64::from).collect();
    assert_eq!(Summary::of(&forty).unwrap().tail.unwrap().0, 75.0);
    let thirty_nine: Vec<f64> = (0..39).map(f64::from).collect();
    let s = Summary::of(&thirty_nine).unwrap();
    assert_eq!((s.count, s.median, s.tail), (39, 19.0, None));

    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0]), 2.5);
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = vec![
        span("solvers.cg_iter_replay", 0, 100, None),
        // Two overlapping children cover 10..40 once, a third 50..60.
        span("core.dot", 10, 30, Some(0)),
        span("core.axpy", 20, 40, Some(0)),
        span("sparse.spmv", 50, 60, Some(0)),
        // A grandchild reduces its parent's self time, not the root's.
        span("ecc.crc32c", 12, 18, Some(1)),
    ];
    assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 10, 6]);
    let by_layer = self_time_by_layer_ns(&spans);
    assert_eq!(by_layer["solvers"], 60);
    assert_eq!(by_layer["core"], 34);
    assert_eq!(by_layer["sparse"], 10);
    assert_eq!(by_layer["ecc"], 6);
}

#[test]
fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
    let tracer = Tracer::new(true);
    let value = tracer.span("serve.drain", || tracer.span("core.spmv", || 7));
    assert_eq!(value, 7);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let own = self_times_ns(&spans);
    assert_eq!(own[0] + own[1], spans[0].duration_ns());

    let adopted = Tracer::new(true);
    adopted.span("core.dot", || ());
    tracer.span("solvers.cg_iter_replay", || tracer.adopt(adopted));
    let spans = tracer.spans();
    assert_eq!(spans[3].parent, Some(2));

    let off = Tracer::new(false);
    assert_eq!(off.span("core.dot", || 3), 3);
    assert!(off.spans().is_empty());
}

#[test]
fn seeds_change_the_inputs() {
    assert_ne!(tealeaf_deck(1, 64, 1e-10), tealeaf_deck(2, 64, 1e-10));
    assert_eq!(tealeaf_deck(1, 64, 1e-10), tealeaf_deck(1, 64, 1e-10));
    assert_ne!(serve_rhs(1, 0, 32), serve_rhs(2, 0, 32));
    assert_ne!(serve_rhs(1, 0, 32), serve_rhs(1, 1, 32));
    assert_eq!(serve_rhs(5, 3, 32), serve_rhs(5, 3, 32));
    assert_ne!(campaign_seed(1), campaign_seed(2));
}

#[test]
fn tealeaf_iterations_repeat_for_one_seed() {
    let iterations = |seed| {
        let setup = tealeaf_cg::setup(seed, 32);
        let (report, _) = tealeaf_cg::step(&setup.protected);
        let report = report.expect("small protected step succeeds");
        assert!(report.converged);
        (report.iterations, report.summary)
    };
    let (a, summary_a) = iterations(7);
    let (b, summary_b) = iterations(7);
    assert_eq!(a, b);
    assert_eq!(summary_a, summary_b);
    let (_, other) = iterations(8);
    assert_ne!(summary_a, other, "another seed poses another problem");
}

#[test]
fn serve_iterations_repeat_for_one_seed() {
    let iterations = |seed| {
        let mut setup = serve_panels::setup(seed, 16);
        let specs = serve_panels::cg_specs(&setup, setup.matrix);
        let round = serve_panels::drain_round(&mut setup.queue, specs, &Tracer::new(false));
        assert_eq!(round.outcomes.len(), serve_panels::CG_JOBS);
        let solutions: Vec<Vec<f64>> = round
            .outcomes
            .iter()
            .map(|o| o.solution.clone().expect("converged"))
            .collect();
        let iterations: Vec<usize> = round.outcomes.iter().map(|o| o.status.iterations).collect();
        (iterations, solutions)
    };
    let (a, solutions_a) = iterations(3);
    let (b, solutions_b) = iterations(3);
    assert_eq!(a, b);
    assert_eq!(solutions_a, solutions_b);
    let (_, other) = iterations(4);
    assert_ne!(solutions_a, other);
}

#[test]
fn campaign_outcome_counts_repeat_for_one_seed() {
    let counts = |seed| {
        let setup = campaign_mix::setup(seed, 16, 24);
        let stream = campaign_mix::stream_config();
        let rounds: Vec<Vec<[usize; 5]>> = (0..2)
            .map(|_| {
                campaign_mix::round(&setup, &stream, &Tracer::new(false))
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect()
            })
            .collect();
        assert_eq!(rounds[0], rounds[1], "a round replays the same trials");
        for row in &rounds[0] {
            assert_eq!(row.iter().sum::<usize>(), 24);
            assert_eq!(row[4], 0, "no silent corruption");
        }
        rounds[0].clone()
    };
    assert_eq!(counts(9), counts(9));
}

#[test]
fn benchmark_json_lists_every_metric_the_runner_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = |section: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let body = &json[start..];
        let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = open + rest[open..].find('"').unwrap();
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let listed = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), listed(&END_TO_END));
    assert_eq!(entries("per_layer"), listed(&PER_LAYER));
}
