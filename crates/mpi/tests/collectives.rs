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
            c.reduce(0, format!("{}", c.rank()), |a, b| format!("{a}{b}"))
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

/// The root's own contribution is moved into its slot, not re-encoded:
/// what `gather`/`allgather` hand back at the root's index is `==` what
/// the root passed in (the peers' slots are what the wire round trip
/// pins).
#[test]
fn gather_and_allgather_return_the_roots_own_value_unchanged() {
    let value = |rank: usize| (vec![-1i64, rank as i64, i64::MAX], Some(format!("r{rank}")));
    let report = run(3, MachineModel::ideal(), |c| {
        let gathered = c.gather(1, value(c.rank()));
        (gathered, c.allgather(value(c.rank())))
    });
    let expect: Vec<_> = (0..3).map(value).collect();
    assert_eq!(report.results[1].0.as_ref(), Some(&expect));
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
    let m = report.comm_matrix();
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
    use pgr_mpi::{run, Comm, CommError, MachineModel, COLLECTIVE_TAG_BASE};

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
            let b = c.bcast(0, Some("x".to_string()));
            let gat = c.gather(0, 9i64).expect("rank 0 is root");
            let a2a = c.alltoall(vec![vec![1u16, 2]]);
            c.barrier();
            (r, g, b, gat, a2a)
        });
        let (r, g, b, gat, a2a) = report.results[0].clone();
        assert_eq!(r, 41);
        assert_eq!(g, vec![5]);
        assert_eq!(b, "x");
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
                Some(c.try_recv_bytes(0, 9).expect_err("tag 9 never sent"))
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
            let matrix_total: u64 = report.comm_matrix().iter().flatten().sum();
            assert_eq!(matrix_total, sent);
        }
    }

    #[test]
    fn solo_try_recv_is_err_but_buffered_self_send_is_ok() {
        let mut c = Comm::solo(MachineModel::ideal());
        assert!(matches!(
            c.try_recv_bytes(0, 1),
            Err(CommError::Unsatisfiable { .. })
        ));
        c.send_bytes(0, 1, vec![9]);
        assert_eq!(c.try_recv_bytes(0, 1).unwrap(), vec![9]);
    }
}
