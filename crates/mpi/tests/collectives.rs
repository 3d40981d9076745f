//! Integration tests of the communicator: collective semantics across
//! rank counts, mismatched-pattern failure behavior, virtual-time laws,
//! and codec properties under random data.

use pgr_mpi::{run, Comm, MachineModel, Wire};

/// Minimal deterministic value source (SplitMix64) for randomized cases.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn reduce_with_non_commutative_op_is_deterministic() {
    // String concatenation is associative but not commutative; the tree
    // order is fixed, so every run gives the same (some) result.
    let once = || {
        run(6, MachineModel::ideal(), |c| {
            c.reduce(format!("{}", c.rank()), |a, b| format!("{a}{b}"))
        })
        .results[0]
            .clone()
    };
    let a = once().expect("root gets the reduction");
    let b = once().expect("root gets the reduction");
    assert_eq!(a, b);
    // Every rank's digit appears exactly once.
    let mut chars: Vec<char> = a.chars().collect();
    chars.sort_unstable();
    assert_eq!(chars, vec!['0', '1', '2', '3', '4', '5']);
}

#[test]
fn nested_collectives_with_p2p_traffic_interleave_safely() {
    let report = run(5, MachineModel::ideal(), |c| {
        let size = c.size();
        let mut acc = 0u64;
        for round in 0..10u64 {
            // P2P ring traffic between collectives.
            let next = (c.rank() + 1) % size;
            let prev = (c.rank() + size - 1) % size;
            c.send(next, 42, &(round + c.rank() as u64));
            let from_prev: u64 = c.recv(prev, 42);
            acc += c.allreduce(from_prev, |a, b| a + b);
        }
        acc
    });
    assert!(
        report.results.iter().all(|&v| v == report.results[0]),
        "every rank agrees"
    );
}

/// Rank 0's own contribution, as the root, is moved into its slot, not
/// re-encoded: what `gather`/`allgather` hand back at index 0 is `==`
/// what rank 0 passed in (the peers' slots are what the wire round trip
/// pins).
#[test]
fn gather_and_allgather_return_the_roots_own_value_unchanged() {
    let value = |rank: usize| (vec![-1i64, rank as i64, i64::MAX], Some(format!("r{rank}")));
    let report = run(3, MachineModel::ideal(), |c| {
        let gathered = c.gather(value(c.rank()));
        (gathered, c.allgather(value(c.rank())))
    });
    let expect: Vec<_> = (0..3).map(value).collect();
    assert_eq!(report.results[0].0.as_ref(), Some(&expect));
    assert!(report.results.iter().all(|(_, all)| *all == expect));
}

#[test]
#[should_panic]
fn mismatched_pattern_is_detected_not_hung() {
    // Rank 1 expects a message no one sends. When rank 0 exits, its
    // channel handles drop and rank 1's recv panics instead of hanging.
    run(2, MachineModel::ideal(), |c| {
        if c.rank() == 1 {
            let _: u32 = c.recv(0, 9);
        }
    });
}

#[test]
fn clocks_only_move_forward() {
    let report = run(3, MachineModel::intel_paragon(), |c| {
        let mut last = c.now();
        let mut ok = true;
        for i in 0..20u64 {
            c.compute(i * 10);
            ok &= c.now() >= last;
            last = c.now();
            let s = c.allreduce(i, u64::max);
            ok &= c.now() >= last;
            last = c.now();
            assert_eq!(s, i);
        }
        ok
    });
    assert!(report.results.iter().all(|&v| v));
}

#[test]
fn makespan_dominates_every_rank() {
    let report = run(4, MachineModel::sparc_center_1000(), |c| {
        c.compute(1000 * (c.rank() as u64 + 1));
        c.barrier();
        c.now()
    });
    let makespan = report.makespan();
    for s in &report.stats {
        assert!(s.time <= makespan + 1e-12);
    }
}

#[test]
fn bytes_accounting_matches_payloads() {
    let report = run(2, MachineModel::ideal(), |c| {
        if c.rank() == 0 {
            c.send_bytes(1, 1, vec![0u8; 100]);
            c.send_bytes(1, 1, vec![0u8; 28]);
        } else {
            let a = c.recv_bytes(0, 1);
            let b = c.recv_bytes(0, 1);
            assert_eq!((a.len(), b.len()), (100, 28));
        }
    });
    assert_eq!(report.stats[0].bytes_sent, 128);
    assert_eq!(report.stats[0].msgs_sent, 2);
    assert_eq!(report.stats[1].bytes_sent, 0);
}

#[test]
fn solo_comm_equals_single_rank_run() {
    let mut solo = Comm::solo(MachineModel::sparc_center_1000());
    solo.compute(12345);
    let s = solo.allreduce(7u64, |a, b| a + b);
    let solo_time = solo.now();

    let report = run(1, MachineModel::sparc_center_1000(), |c| {
        c.compute(12345);
        let s = c.allreduce(7u64, |a, b| a + b);
        (s, c.now().to_bits())
    });
    assert_eq!(report.results[0].0, s);
    assert_eq!(f64::from_bits(report.results[0].1), solo_time);
}

#[test]
fn allreduce_sum_matches_direct_sum() {
    let mut mix = Mix(0xA101);
    for _ in 0..16 {
        let n = 1 + mix.below(8);
        let values: Vec<u64> = (0..n).map(|_| mix.next() % 1_000_000).collect();
        let vals = values.clone();
        let report = run(n, MachineModel::ideal(), move |c| {
            c.allreduce(vals[c.rank()], |a, b| a + b)
        });
        let expect: u64 = values.iter().sum();
        assert!(report.results.iter().all(|&v| v == expect));
    }
}

#[test]
fn alltoall_is_a_transpose() {
    let mut mix = Mix(0xA102);
    for _ in 0..16 {
        let n = 1 + mix.below(6);
        let seed = mix.next() % 1000;
        let report = run(n, MachineModel::ideal(), move |c| {
            let data: Vec<Vec<u64>> = (0..n)
                .map(|dst| vec![seed + (c.rank() * 100 + dst) as u64])
                .collect();
            c.alltoall(data)
        });
        for (r, rows) in report.results.iter().enumerate() {
            for (src, v) in rows.iter().enumerate() {
                assert_eq!(v[0], seed + (src * 100 + r) as u64);
            }
        }
    }
}

#[test]
fn typed_roundtrip_over_the_wire() {
    let mut mix = Mix(0xA103);
    for _ in 0..16 {
        let len = mix.below(40);
        let v: Vec<(i64, u32)> = (0..len)
            .map(|_| (mix.next() as i64, mix.next() as u32))
            .collect();
        let payload = v.clone();
        let report = run(2, MachineModel::ideal(), move |c| {
            if c.rank() == 0 {
                c.send(1, 5, &payload);
                Vec::new()
            } else {
                c.recv::<Vec<(i64, u32)>>(0, 5)
            }
        });
        assert_eq!(&report.results[1], &v);
    }
}

#[test]
fn wire_length_prefix_is_exact() {
    let mut mix = Mix(0xA104);
    for _ in 0..32 {
        let len = mix.below(100);
        let v: Vec<u32> = (0..len).map(|_| mix.next() as u32).collect();
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 4 + 4 * v.len());
    }
}

#[test]
fn comm_matrix_rows_sum_to_bytes_sent() {
    let report = run(3, MachineModel::ideal(), |c| {
        c.send_bytes((c.rank() + 1) % 3, 1, vec![0u8; 10 * (c.rank() + 1)]);
        let _ = c.recv_bytes((c.rank() + 2) % 3, 1);
        let _ = c.allreduce(1u64, |a, b| a + b);
    });
    let m: Vec<&[u64]> = report.stats.iter().map(|s| &s.bytes_to[..]).collect();
    for (r, stats) in report.stats.iter().enumerate() {
        let row_sum: u64 = m[r].iter().sum();
        assert_eq!(row_sum, stats.bytes_sent, "rank {r}");
    }
    // The explicit ring sends are visible in the matrix.
    assert!(m[0][1] >= 10);
    assert!(m[1][2] >= 20);
    assert!(m[2][0] >= 30);
}

// ----- communication edge cases and structured-failure diagnostics -----

mod edge_cases {
    use super::Mix;
    use pgr_mpi::{
        run, run_instrumented, Comm, CommError, InstrumentConfig, MachineModel, TraceConfig,
        TraceEvent, TraceEventKind, COLLECTIVE_TAG_BASE,
    };

    #[test]
    fn zero_length_payloads_roundtrip() {
        let report = run(2, MachineModel::intel_paragon(), |c| {
            if c.rank() == 0 {
                c.send_bytes(1, 1, Vec::new());
                c.send(1, 2, &()); // unit type encodes to zero bytes
                0
            } else {
                let raw = c.recv_bytes(0, 1);
                assert!(raw.is_empty());
                c.recv::<()>(0, 2);
                1
            }
        });
        // Zero payload bytes still count as messages (latency is real).
        assert_eq!(report.stats[0].msgs_sent, 2);
        assert_eq!(report.stats[0].bytes_sent, 0);
        assert!(
            report.stats[1].time > 0.0,
            "latency charged even for empty messages"
        );
    }

    #[test]
    fn self_sends_interleave_with_peer_sends() {
        let report = run(2, MachineModel::ideal(), |c| {
            let me = c.rank();
            let peer = 1 - me;
            // Interleave: self, peer, self — receive in a different order.
            c.send(me, 10, &(me as u32 * 100));
            c.send(peer, 11, &(me as u32 * 100 + 1));
            c.send(me, 12, &(me as u32 * 100 + 2));
            let from_peer: u32 = c.recv(peer, 11);
            let self_b: u32 = c.recv(me, 12);
            let self_a: u32 = c.recv(me, 10);
            (from_peer, self_a, self_b)
        });
        assert_eq!(report.results[0], (101, 0, 2));
        assert_eq!(report.results[1], (1, 100, 102));
    }

    #[test]
    fn user_tag_just_below_collective_base_is_legal_and_isolated() {
        let tag = COLLECTIVE_TAG_BASE - 1;
        let report = run(3, MachineModel::ideal(), move |c| {
            // A user message on the highest legal tag, interleaved with
            // collectives that use tags >= COLLECTIVE_TAG_BASE.
            if c.rank() == 0 {
                c.send(1, tag, &7u32);
            }
            let s = c.allreduce(1u64, |a, b| a + b);
            assert_eq!(s, 3);
            if c.rank() == 1 {
                c.recv::<u32>(0, tag)
            } else {
                0
            }
        });
        assert_eq!(report.results[1], 7);
    }

    #[test]
    #[should_panic(expected = "user tags must be <")]
    fn collective_tag_range_is_rejected_for_user_sends() {
        run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.send(1, COLLECTIVE_TAG_BASE, &1u32);
            }
        });
    }

    #[test]
    fn collectives_at_size_one_return_own_values() {
        let report = run(1, MachineModel::sparc_center_1000(), |c| {
            let r = c.allreduce(41u32, |a, b| a + b);
            let g = c.allgather(5u8);
            let gat = c.gather(9i64).expect("rank 0 is root");
            let a2a = c.alltoall(vec![vec![1u16, 2]]);
            c.barrier();
            (r, g, gat, a2a)
        });
        let (r, g, gat, a2a) = report.results[0].clone();
        assert_eq!(r, 41);
        assert_eq!(g, vec![5]);
        assert_eq!(gat, vec![9]);
        assert_eq!(a2a, vec![vec![1, 2]]);
    }

    #[test]
    fn mismatched_pattern_yields_structured_error_with_pending_snapshot() {
        // Rank 0 sends tag 5 and exits; rank 1 waits for tag 9, which will
        // never arrive. The tag-5 message lands in the pending queue and
        // must appear in the error, along with the blocked (src, tag).
        let report = run(2, MachineModel::ideal(), |c| {
            if c.rank() == 0 {
                c.send(1, 5, &vec![1u8, 2, 3]);
                None
            } else {
                Some(c.try_recv::<Vec<u8>>(0, 9).expect_err("tag 9 never sent"))
            }
        });
        let err = report.results[1].clone().expect("rank 1 got the error");
        match &err {
            CommError::PeersDisconnected {
                rank,
                src,
                tag,
                pending,
                ..
            } => {
                assert_eq!((*rank, *src, *tag), (1, 0, 9));
                assert_eq!(
                    pending.len(),
                    1,
                    "the unmatched tag-5 message is snapshotted"
                );
                assert_eq!(pending[0].src, 0);
                assert_eq!(pending[0].tag, 5);
                assert_eq!(pending[0].bytes, 3 + 4, "payload plus Vec length prefix");
            }
            other => panic!("expected PeersDisconnected, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("src=0"), "{msg}");
        assert!(msg.contains("tag=9"), "{msg}");
        assert!(msg.contains("mismatched send/recv pattern"), "{msg}");
        assert!(
            msg.contains("src=0 tag=5 (7 B)"),
            "pending queue printed: {msg}"
        );
    }

    #[test]
    fn mismatched_recv_after_peers_exit_names_the_blocked_rank_in_panic() {
        // The infallible recv path must carry the same diagnosis in its
        // panic message (this is what a user sees on a pattern bug).
        let err = std::thread::spawn(|| {
            run(2, MachineModel::ideal(), |c| {
                if c.rank() == 1 {
                    let _: u32 = c.recv(0, 9);
                }
            });
        })
        .join()
        .expect_err("rank 1 must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("recv(src=0, tag=9)"), "{msg}");
    }

    #[test]
    fn rank_panicking_before_a_collective_unblocks_its_peers() {
        // Rank 1 never reaches the allgather its peers block in. Its
        // panicked exit notice ends their receives (`PeersDisconnected`), and the
        // run re-raises rank 1's own payload, not theirs.
        for size in [2, 3] {
            let err = std::panic::catch_unwind(|| {
                run(size, MachineModel::ideal(), |c| {
                    if c.rank() == 1 {
                        panic!("boom");
                    }
                    c.allgather(c.rank() as u32)
                })
            })
            .expect_err("rank 1 panics");
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .expect("panic payload is a string");
            assert!(msg.contains("boom"), "P={size}: {msg}");
        }
    }

    #[test]
    fn an_early_exit_ends_every_receive_it_strands() {
        // Rank 1 exits without sending what rank 0 waits for, while rank 2
        // waits on rank 0. Rank 1's exit notice ends rank 0's receive,
        // and rank 0's own exit then ends rank 2's: no rank hangs.
        let report = run(3, MachineModel::ideal(), |c| match c.rank() {
            0 => c.try_recv::<Vec<u8>>(1, 7).err(),
            2 => c.try_recv::<Vec<u8>>(0, 8).err(),
            _ => None,
        });
        let ended = |r: usize| match &report.results[r] {
            Some(CommError::PeersDisconnected { rank, src, tag, .. }) => (*rank, *src, *tag),
            other => panic!("rank {r}: expected PeersDisconnected, got {other:?}"),
        };
        assert_eq!(ended(0), (0, 1, 7));
        assert_eq!(ended(2), (2, 0, 8));
        assert!(report.results[1].is_none());
    }

    /// Rank 0 charges `ops` 1..=20, then receives from rank 1 (which
    /// returns without sending), charges 21 and receives from itself:
    /// the first ends `PeersDisconnected`, the second `Unsatisfiable`.
    fn stranded_receives(instr: InstrumentConfig) -> (Vec<TraceEvent>, CommError, CommError) {
        let (report, traces, _) = run_instrumented(2, MachineModel::ideal(), instr, |c| {
            if c.rank() == 1 {
                return None;
            }
            (1..=20).for_each(|ops| c.compute(ops));
            let peer = c.try_recv::<Vec<u8>>(1, 7).expect_err("rank 1 never sends");
            c.compute(21);
            let own = c.try_recv::<Vec<u8>>(0, 8).expect_err("nothing buffered");
            Some((peer, own))
        });
        let (peer, own) = report.results[0].clone().expect("rank 0 got both errors");
        assert!(
            matches!(peer, CommError::PeersDisconnected { .. }),
            "{peer:?}"
        );
        assert!(matches!(own, CommError::Unsatisfiable { .. }), "{own:?}");
        let events = traces.first().map_or_else(Vec::new, |t| t.events.clone());
        (events, peer, own)
    }

    fn recent(err: &CommError) -> &[TraceEvent] {
        match err {
            CommError::Unsatisfiable { recent, .. }
            | CommError::PeersDisconnected { recent, .. } => recent,
            other => panic!("expected a failure with a trace tail, got {other:?}"),
        }
    }

    #[test]
    fn receive_errors_carry_the_ranks_recent_events_when_traced() {
        let (events, peer, own) = stranded_receives(InstrumentConfig {
            trace: TraceConfig::on(),
            ..InstrumentConfig::off()
        });
        // A failed receive records nothing: the peer error's tail ends at
        // `compute(20)`, the self-receive's one event later, and that is
        // where the rank's trace ends.
        let ops = |tail: &[TraceEvent]| -> Vec<u64> {
            tail.iter()
                .map(|e| match e.kind {
                    TraceEventKind::Compute { ops } => ops,
                    ref other => panic!("rank 0 only computed, got {other:?}"),
                })
                .collect()
        };
        assert_eq!(ops(recent(&peer)), (5..=20).collect::<Vec<_>>());
        assert_eq!(ops(recent(&own)), (6..=21).collect::<Vec<_>>());
        assert_eq!(recent(&own), &events[events.len() - 16..]);
        for err in [&peer, &own] {
            let msg = err.to_string();
            assert!(msg.contains("last 16 trace events:"), "{msg}");
            assert!(msg.contains("compute 20 ops"), "{msg}");
        }

        let (events, peer, own) = stranded_receives(InstrumentConfig::off());
        assert!(events.is_empty());
        assert!(recent(&peer).is_empty() && recent(&own).is_empty());
        assert!(!own.to_string().contains("trace events"), "{own}");
    }

    #[test]
    fn send_accounting_is_exact_under_random_traffic() {
        let mut mix = Mix(0xA105);
        for _ in 0..8 {
            let n = 2 + mix.below(4);
            let rounds = 1 + mix.below(6);
            let report = run(n, MachineModel::ideal(), move |c| {
                for r in 0..rounds {
                    let dst = (c.rank() + 1 + r % (n - 1)) % n;
                    if dst != c.rank() {
                        c.send_bytes(dst, 3, vec![0u8; 8]);
                    }
                }
                // Drain: receive everything that was sent to us.
                for r in 0..rounds {
                    let src = (c.rank() + n - (1 + r % (n - 1))) % n;
                    if src != c.rank() {
                        let _ = c.recv_bytes(src, 3);
                    }
                }
            });
            let sent: u64 = report.stats.iter().map(|s| s.bytes_sent).sum();
            let matrix_total: u64 = report.stats.iter().flat_map(|s| &s.bytes_to).sum();
            assert_eq!(matrix_total, sent);
        }
    }

    #[test]
    fn solo_try_recv_is_err_but_buffered_self_send_is_ok() {
        let mut c = Comm::solo(MachineModel::ideal());
        assert!(matches!(
            c.try_recv::<Vec<u8>>(0, 1),
            Err(CommError::Unsatisfiable { .. })
        ));
        c.send(0, 1, &vec![9u8]);
        assert_eq!(c.try_recv::<Vec<u8>>(0, 1).unwrap(), vec![9]);
    }
}

// ----- charged allgather: a compact payload billed as the dense one -----

mod charged {
    use pgr_mpi::fault::FAULTS_CORRUPTED;
    use pgr_mpi::{
        reliable, run_instrumented, ChaosConfig, ChaosLayer, Comm, CommError, FaultAction,
        InstrumentConfig, MachineModel, MetricsConfig, MsgCtx, Phase, ReliabilityConfig,
        TraceEventKind, Wire, WireError, COLLECTIVE_TAG_BASE,
    };
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    const SIZES: [usize; 5] = [1, 2, 3, 5, 8];
    const WORDS: usize = 300;
    const ROUNDS: u64 = 6;

    /// The dense value rank `rank` stands for: `WORDS` words, the first
    /// its rank — what the compact value (the rank alone) is billed as.
    fn dense(rank: u64) -> Vec<u64> {
        let mut words = vec![0; WORDS];
        words[0] = rank;
        words
    }

    fn dense_len() -> usize {
        dense(0).to_bytes().len()
    }

    /// `ROUNDS` allgathers with uneven compute between them, each rank's
    /// value shipped compact and charged (`charged`) or dense.
    fn rounds(comm: &mut Comm, charged: bool) -> Vec<Vec<u64>> {
        comm.phase_mark(Phase::Coarse);
        (0..ROUNDS)
            .map(|round| {
                let me = comm.rank() as u64;
                comm.compute(300 * (me + 1) * (round + 1));
                if charged {
                    comm.allgather_charged(me + round, |_| dense_len()).to_vec()
                } else {
                    let all = comm.allgather(dense(me + round));
                    all.into_iter().map(|words| words[0]).collect()
                }
            })
            .collect()
    }

    #[test]
    fn charged_allgather_matches_the_dense_one_in_every_account() {
        let machine = MachineModel::sparc_center_1000();
        for size in SIZES {
            let run_as = |charged: bool| {
                run_instrumented(size, machine, InstrumentConfig::full(), move |comm| {
                    rounds(comm, charged)
                })
            };
            let (dense_run, dense_traces, dense_metrics) = run_as(false);
            let (charged_run, charged_traces, charged_metrics) = run_as(true);
            let expect: Vec<Vec<u64>> = (0..ROUNDS)
                .map(|round| (0..size as u64).map(|r| r + round).collect())
                .collect();
            assert!(charged_run.results.iter().all(|r| *r == expect), "P={size}");
            assert_eq!(dense_run.results, charged_run.results, "P={size}");
            // Clock to the bit, messages, bytes (per destination too),
            // phases.
            assert_eq!(dense_run.stats, charged_run.stats, "P={size}: rank stats");
            // Every event, the Send/Recv bytes among them.
            assert_eq!(dense_traces, charged_traces, "P={size}: traces");
            assert_eq!(dense_metrics, charged_metrics, "P={size}: metrics");
            let sent: Vec<usize> = charged_traces
                .iter()
                .flat_map(|t| &t.events)
                .filter_map(|e| match e.kind {
                    TraceEventKind::Send { bytes, .. } => Some(bytes),
                    _ => None,
                })
                .collect();
            // P − 1 gather frames and P − 1 broadcast frames a round.
            assert_eq!(sent.len(), 2 * (size - 1) * ROUNDS as usize, "P={size}");
            let bcast = 4 + size * dense_len();
            assert!(sent.iter().all(|&b| b == dense_len() || b == bcast));
        }
    }

    /// A dense log of `n` records of 24 bytes — what a compact `n` stands
    /// for in [`charged_allgather_with_unequal_bills_matches_the_dense_one`].
    fn records(n: u32) -> Vec<(u64, u64, u64)> {
        (0..u64::from(n))
            .map(|i| (i, i ^ 0xA5, u64::from(n)))
            .collect()
    }

    /// The bytes `records(n)` encodes to: a `u32` count, then the records.
    fn bill(n: &u32) -> usize {
        4 + 24 * *n as usize
    }

    #[test]
    fn charged_allgather_with_unequal_bills_matches_the_dense_one() {
        let machine = MachineModel::sparc_center_1000();
        assert_eq!(records(7).to_bytes().len(), bill(&7));
        for size in SIZES {
            // Rank r ships a 4-byte count and bills 4 + 24 · (3r + round).
            let run_as = |charged: bool| {
                run_instrumented(size, machine, InstrumentConfig::full(), move |comm| {
                    comm.phase_mark(Phase::Switchable);
                    let me = comm.rank() as u64;
                    (0..ROUNDS)
                        .map(|round| {
                            let n = (3 * me + round) as u32;
                            comm.compute(300 * (me + 1) * (round + 1));
                            if charged {
                                comm.allgather_charged(n, bill).to_vec()
                            } else {
                                let all = comm.allgather(records(n));
                                all.iter().map(|r| r.len() as u32).collect()
                            }
                        })
                        .collect::<Vec<Vec<u32>>>()
                })
            };
            let (dense_run, dense_traces, dense_metrics) = run_as(false);
            let (charged_run, charged_traces, charged_metrics) = run_as(true);
            let expect: Vec<Vec<u32>> = (0..ROUNDS as u32)
                .map(|round| (0..size as u32).map(|r| 3 * r + round).collect())
                .collect();
            assert!(charged_run.results.iter().all(|r| *r == expect), "P={size}");
            for (d, c) in dense_run.stats.iter().zip(&charged_run.stats) {
                let rank = d.rank;
                assert_eq!(
                    d.time.to_bits(),
                    c.time.to_bits(),
                    "P={size} rank {rank}: clock"
                );
                assert_eq!(d.msgs_sent, c.msgs_sent, "P={size} rank {rank}: messages");
                assert_eq!(d.bytes_sent, c.bytes_sent, "P={size} rank {rank}: bytes");
            }
            let max_rank_bytes = |run: &pgr_mpi::RunReport<Vec<Vec<u32>>>| {
                run.stats.iter().map(|s| s.bytes_sent).max()
            };
            assert_eq!(max_rank_bytes(&dense_run), max_rank_bytes(&charged_run));
            // Per-destination bytes included.
            assert_eq!(dense_run.stats, charged_run.stats, "P={size}: rank stats");
            assert_eq!(dense_traces, charged_traces, "P={size}: traces");
            assert_eq!(dense_metrics, charged_metrics, "P={size}: metrics");
            // Rank 0 sends only broadcast frames, each billed 4 + Σ bill.
            let bcasts: std::collections::BTreeSet<usize> = charged_traces[0]
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::Send { bytes, .. } => Some(bytes),
                    _ => None,
                })
                .collect();
            let billed = (0..ROUNDS as u32).map(|round| {
                4 + (0..size as u32)
                    .map(|r| bill(&(3 * r + round)))
                    .sum::<usize>()
            });
            let billed = billed.filter(|_| size > 1).collect();
            assert_eq!(bcasts, billed, "P={size}");
        }
    }

    #[test]
    fn charged_allgather_matches_the_dense_one_under_masked_chaos() {
        let machine = MachineModel::sparc_center_1000();
        let mut injected = 0;
        for size in [2, 3, 5] {
            for seed in [1u64, 7, 1997] {
                let run_as = |charged: bool| {
                    let instr = InstrumentConfig {
                        metrics: MetricsConfig::on(),
                        fault: Some(Arc::new(ChaosLayer::new(
                            ChaosConfig::messages_with_corruption(seed),
                        ))),
                        reliability: ReliabilityConfig::on(),
                        ..InstrumentConfig::off()
                    };
                    run_instrumented(size, machine, instr, move |comm| rounds(comm, charged))
                };
                let (dense_run, _, dense_metrics) = run_as(false);
                let (charged_run, _, charged_metrics) = run_as(true);
                let what = format!("P={size} seed {seed}");
                assert_eq!(dense_run.results, charged_run.results, "{what}");
                assert_eq!(dense_run.stats, charged_run.stats, "{what}");
                assert_eq!(dense_metrics, charged_metrics, "{what}: transport counters");
                injected += charged_metrics
                    .iter()
                    .filter_map(|m| m.counter(reliable::RETRANSMITS))
                    .sum::<u64>();
                injected += charged_metrics
                    .iter()
                    .filter_map(|m| m.counter(FAULTS_CORRUPTED))
                    .sum::<u64>();
            }
        }
        assert!(injected > 0, "the schedules must exercise the fault paths");
    }

    #[test]
    fn corrupted_charged_frame_fails_the_crc_over_its_payload() {
        // Reliability off: the root's marked broadcast frame reaches rank
        // 1, which refuses it — the collective fails with the
        // diagnosis. (The root is done by then: a rank that panicked
        // mid-collective would leave its peers waiting.)
        let corrupt_bcast = |ctx: &MsgCtx| match ctx.tag {
            t if t == COLLECTIVE_TAG_BASE | 1 => FaultAction::Corrupt,
            _ => FaultAction::Deliver,
        };
        let instr = InstrumentConfig {
            fault: Some(Arc::new(corrupt_bcast)),
            ..InstrumentConfig::off()
        };
        let failed = catch_unwind(AssertUnwindSafe(|| {
            run_instrumented(2, MachineModel::ideal(), instr, |comm| {
                comm.allgather_charged(comm.rank() as u64, |_| dense_len())
            })
        }))
        .expect_err("rank 1 receives a corrupt frame");
        let msg = failed
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        // The broadcast half names the collective the caller invoked.
        assert!(msg.contains("collective allgather failed"), "{msg}");
        assert!(msg.contains("corrupted in transit"), "{msg}");
    }

    #[test]
    fn plain_receive_matching_a_charged_frame_is_a_kind_mismatch() {
        let n = dense_len();
        let (report, ..) = run_instrumented(
            2,
            MachineModel::ideal(),
            InstrumentConfig::off(),
            move |comm| {
                if comm.rank() == 0 {
                    // The gather frame of rank 1's allgather, taken as a
                    // typed payload.
                    Some(comm.try_recv::<u64>(1, COLLECTIVE_TAG_BASE))
                } else {
                    // Its broadcast never comes: the root has moved on.
                    let _ = catch_unwind(AssertUnwindSafe(|| comm.allgather_charged(7u64, |_| n)));
                    None
                }
            },
        );
        let err = report.results[0].clone().expect("rank 0 reports");
        assert!(
            matches!(
                err,
                Err(CommError::Decode {
                    rank: 0,
                    src: 1,
                    error: WireError::WrongType { .. },
                    ..
                })
            ),
            "{err:?}"
        );
    }
}
