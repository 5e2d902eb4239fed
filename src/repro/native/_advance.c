/* Fused slot-loop kernel for the columnar runtime (repro.native).
 *
 * One call advances the counters-only fast path of
 * repro.vectorized.runtime.VectorRuntime toward per-trial slot targets:
 * transmit decision from each node's own PCG64 generator, gain gather
 * (dense rows or CSR-pruned candidate lists), SINR reduce, decode,
 * dedup and kernel state step in one C loop, with no Python dispatch
 * between slots.  Batches with protocol clients attached set
 * targets one slot ahead: the Python shim replays each slot's events
 * through the clients (whose rebroadcasts write busy / awake / seen /
 * tx_mid and the kernel columns) before the next call.
 *
 * Bit-identity contract (the whole point — see the "Native kernels"
 * section of docs/architecture.md):
 *
 *  - Uniform consumption: each busy cell of a live trial draws exactly
 *    one uniform per slot from its node's PCG64 state, which this file
 *    steps in place (pcg64_random): the double numpy's
 *    Generator.random() returns from the same state, bit for bit.
 *  - Decay probability: 2^-(j+1) is produced with ldexp (exact power
 *    of two, the value numpy's `2.0 ** -(j + 1.0)` yields).
 *  - Ack arithmetic: the same adds / multiplies / min-max clamps in
 *    the same order as AckKernel.step / AckKernel.notify.
 *  - Interference totals accumulate row-by-row in transmitter order —
 *    the addend order of ndarray.sum(axis=0), which physics.
 *    _segment_totals documents as the bit-identity anchor — and the
 *    SINR evaluates as p / ((total - p) + noise), decode iff >= beta.
 *  - Decode order is transmitter-major then listener-ascending per
 *    trial (np.nonzero row-major over the (k, n) ok matrix), and the
 *    per-trial event order within a slot is acks, then wakes, then
 *    deduped rcvs — the numpy fast path's per-kind subsequences.
 *  - Sparse (CSR) mode replays SparseResolver._exact_flat: the
 *    candidate set is the ascending union of the transmitters' grid
 *    neighborhoods minus the transmitters themselves (np.unique order),
 *    and every arithmetic input is *gathered* from the same dense gain
 *    matrix the numpy paths read — never recomputed from coordinates,
 *    because libm pow() does not bit-match numpy's power kernel.
 *    Non-candidate listeners are provably undecodable (sinr/sparse.py),
 *    so pruning them changes no decode and no event.
 *
 * Trial-parallel threading: trials share nothing — each owns its PCG64
 *  lanes, kernel-state columns, counters, dedup rows and event
 *  subsequence — so the trials axis is partitioned into contiguous
 *  ranges, one POSIX thread each.  Every thread writes its
 *  events into its own segment of the sink (ev_seg rows apiece) and its
 *  own (n,)-sized scratch block; the only shared mutable word is the
 *  atomic error flag.  Results are therefore independent of nthreads by
 *  construction, which tests/test_native_equivalence.py pins across
 *  thread counts {1, 2, 8}.
 *
 * The struct below is mirrored field-for-field by the ctypes binding
 * in repro/native/__init__.py; every field is 8 bytes wide (LP64), so
 * the layouts agree without packing pragmas.
 */

#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    /* lattice geometry and call bounds */
    long trials;
    long n;
    long nthreads; /* Python clamps to [1, min(trials, MAX_THREADS)] */
    long kind;     /* 0 = decay, 1 = ack */
    long sparse;   /* 1 = CSR candidate decode, 0 = dense rows */
    /* per-trial absolute slot targets (trial_slots[t] advances to it) */
    const long *trial_target;
    /* runtime columns over the (trials*n,) lattice */
    const unsigned char *live; /* (trials,) which trials advance */
    unsigned char *busy;
    unsigned char *awake;
    long *tx_mid;
    unsigned char *seen; /* (trials*n, n) rcv dedup matrix */
    /* per-node PCG64 generators, stepped in place: (trials*n, 4)
     * words, state hi, state lo, increment hi, increment lo */
    uint64_t *pcg;
    /* deterministic physics: dense gains, optionally CSR-pruned */
    const double *gains; /* base gain matrix pointer */
    long gain_stride;    /* elements between trial blocks (0 = shared) */
    double noise;
    double beta;
    const long *nbr;    /* CSR neighbor ids (sparse mode, else NULL) */
    const long *indptr; /* CSR row pointers, (n+1,) */
    /* kernel columns shared by both protocols */
    long *slots_run;
    long *transmissions;
    /* DecayKernel columns (NULL for ack) */
    const long *phase_length;
    const long *ack_budget;
    /* AckKernel columns (NULL for decay) */
    double *probability;
    long *block_remaining;
    double *tp;
    long *rc;
    unsigned char *halted_col;
    unsigned char *fallback_pending;
    long *fallbacks;
    const double *halt_budget;
    const double *rc_threshold;
    const long *inner_block_slots;
    const double *prob_cap;
    const double *fallback_divisor;
    const double *floor_probability;
    /* per-trial accumulators, drained by the shim after each call */
    long *trial_slots; /* runtime.slots (advanced in place) */
    long *slot_counts; /* Channel._slot_count increments */
    long *tx_totals;   /* Channel.total_transmissions increments */
    long *rx_totals;   /* Channel.total_receptions increments */
    /* event sink: nthreads segments of ev_seg rows of
     * [trial, slot, code, node, mid, sender] (sender: the decoded
     * transmitter, written on rcv rows only); segment order is
     * thread order, i.e. ascending trial ranges, so a segment-order
     * drain preserves per-trial event order for any thread count. */
    long *events;
    long ev_seg;  /* rows per thread segment */
    long *ev_lens; /* (nthreads,) rows used per segment (out) */
    /* per-thread scratch, each sized (nthreads, n) */
    long *sc_tx;
    double *sc_tot;
    unsigned char *sc_txflag;
    unsigned char *sc_stepped;
    unsigned char *sc_decoded;
    long *sc_rx_listener;
    long *sc_rx_sender;
    long *sc_cand;              /* sparse candidate ids, ascending */
    unsigned char *sc_candflag; /* sparse candidate membership flags */
    /* -2 after any thread sees a beta > 1 uniqueness violation */
    _Atomic long error;
} repro_state;

enum { EV_ACK = 0, EV_WAKE = 1, EV_RCV = 2 }; /* trace kind codes */
enum { EV_COLS = 6 }; /* columns per event row */
enum { MAX_THREADS = 64 }; /* mirrored as repro.native.MAX_THREADS */

/* Generator.random() on one node's PCG64 lane: numpy's 128-bit LCG step
 * (multiplier PCG_DEFAULT_MULTIPLIER_128), its XSL-RR output of the new
 * state, and the top 53 bits of that output scaled to [0, 1). */
static double pcg64_random(uint64_t *lane) {
    const __uint128_t mult =
        ((__uint128_t)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    __uint128_t state = ((__uint128_t)lane[0] << 64) | lane[1];
    state = state * mult + (((__uint128_t)lane[2] << 64) | lane[3]);
    lane[0] = (uint64_t)(state >> 64);
    lane[1] = (uint64_t)state;
    const uint64_t x = lane[0] ^ lane[1];
    const unsigned rot = (unsigned)(lane[0] >> 58);
    const uint64_t out = (x >> rot) | (x << ((-rot) & 63));
    return (double)(out >> 11) * 0x1.0p-53;
}

/* One thread's working set: its trial range, its event segment and its
 * scratch block.  Everything it may write is disjoint from every other
 * thread's set. */
typedef struct {
    repro_state *st;
    long t0; /* first trial (inclusive) */
    long t1; /* last trial (exclusive) */
    long *events;  /* this thread's segment base */
    long *ev_len;  /* this thread's slot in ev_lens */
    long *sc_tx;
    double *sc_tot;
    unsigned char *sc_txflag;
    unsigned char *sc_stepped;
    unsigned char *sc_decoded;
    long *sc_rx_listener;
    long *sc_rx_sender;
    long *sc_cand;
    unsigned char *sc_candflag;
} worker_slot;

/* Append one event row and return it; only an rcv row fills column 5
 * (its sender).  Writing -1 there on ack and wake rows too shifted the
 * hot SINR loops below by 16 bytes under gcc 12 -O3, and the kernel ran
 * ~10% slower on a 2-core Xeon host (loop alignment), so those rows
 * leave it unset. */
static long *emit(worker_slot *w, long t, long slot, long code, long node,
                  long mid) {
    long *row = w->events + *w->ev_len * EV_COLS;
    row[0] = t;
    row[1] = slot;
    row[2] = code;
    row[3] = node;
    row[4] = mid;
    *w->ev_len += 1;
    return row;
}

/* Advance the trials of one worker slot toward their targets, stopping
 * at a slot boundary when the slot's event segment cannot hold a
 * worst-case slot (3n rows: every busy cell acks plus one wake and one
 * rcv per unique-decode listener).  A beta > 1 uniqueness violation
 * (two decodable senders at one listener) raises the shared error flag
 * and stops every thread at its next slot boundary. */
static void advance_range(worker_slot *w) {
    repro_state *st = w->st;
    const long n = st->n;

    for (long t = w->t0; t < w->t1; t++) {
        if (!st->live[t])
            continue;
        const long base = t * n;
        while (st->trial_slots[t] < st->trial_target[t]) {
            if (atomic_load_explicit(&st->error, memory_order_relaxed))
                return;
            if (st->ev_seg - *w->ev_len < 3 * n)
                return;
            const long slot = st->trial_slots[t];

            /* Phase 1: kernel step for every busy cell, in ascending
             * node order (the flatnonzero order of the numpy path). */
            long ntx = 0;
            memset(w->sc_txflag, 0, (size_t)n);
            memset(w->sc_stepped, 0, (size_t)n);
            for (long v = 0; v < n; v++) {
                const long cell = base + v;
                if (!st->busy[cell])
                    continue;
                const double u = pcg64_random(st->pcg + 4 * cell);
                int transmit = 0;
                int halt = 0;
                if (st->kind == 0) {
                    const long j =
                        st->slots_run[cell] % st->phase_length[cell];
                    st->slots_run[cell] += 1;
                    const double p = ldexp(1.0, (int)(-(j + 1)));
                    transmit = u < p;
                    halt = st->slots_run[cell] >= st->ack_budget[cell];
                } else {
                    if (st->fallback_pending[cell]) {
                        st->fallback_pending[cell] = 0;
                        st->fallbacks[cell] += 1;
                        double fallen = st->probability[cell] /
                                        st->fallback_divisor[cell];
                        if (st->floor_probability[cell] > fallen)
                            fallen = st->floor_probability[cell];
                        st->rc[cell] = 0;
                        double doubled = 2.0 * fallen;
                        st->probability[cell] =
                            doubled < st->prob_cap[cell]
                                ? doubled
                                : st->prob_cap[cell];
                        st->block_remaining[cell] =
                            st->inner_block_slots[cell];
                    }
                    st->slots_run[cell] += 1;
                    const double p = st->probability[cell];
                    transmit = u < p;
                    st->tp[cell] += p;
                    halt = st->tp[cell] > st->halt_budget[cell];
                    if (halt)
                        st->halted_col[cell] = 1;
                    st->block_remaining[cell] -= 1;
                    if (st->block_remaining[cell] <= 0 && !halt) {
                        double doubled = 2.0 * st->probability[cell];
                        st->probability[cell] =
                            doubled < st->prob_cap[cell]
                                ? doubled
                                : st->prob_cap[cell];
                        st->block_remaining[cell] =
                            st->inner_block_slots[cell];
                    }
                }
                if (transmit) {
                    st->transmissions[cell] += 1;
                    w->sc_tx[ntx++] = v;
                    w->sc_txflag[v] = 1;
                }
                if (halt) {
                    st->busy[cell] = 0;
                    emit(w, t, slot, EV_ACK, v, st->tx_mid[cell]);
                } else {
                    w->sc_stepped[v] = 1;
                }
            }

            /* Channel.finalize_slot's counter bookkeeping. */
            st->slot_counts[t] += 1;
            st->tx_totals[t] += ntx;

            /* Phase 2: SINR resolution.  Totals accumulate row by row
             * in transmitter order (ndarray.sum(axis=0) addend order);
             * the decode scan is transmitter-major then listener-
             * ascending (np.nonzero row-major).  Sparse mode prunes
             * the listener axis to the CSR candidate union first —
             * identical arithmetic on identical gain entries, fewer
             * of them. */
            long nrx = 0;
            if (ntx > 0) {
                const double *g = st->gains + st->gain_stride * t;
                memset(w->sc_decoded, 0, (size_t)n);
                if (st->sparse) {
                    /* Candidate union: flag every grid neighbor of
                     * every transmitter, then collect the flagged,
                     * non-transmitting nodes in one ascending pass —
                     * np.unique's sorted order, minus the tx set,
                     * exactly _candidate_listeners(). */
                    long ncand = 0;
                    memset(w->sc_candflag, 0, (size_t)n);
                    for (long i = 0; i < ntx; i++) {
                        const long s = w->sc_tx[i];
                        for (long e = st->indptr[s]; e < st->indptr[s + 1];
                             e++)
                            w->sc_candflag[st->nbr[e]] = 1;
                    }
                    for (long u = 0; u < n; u++) {
                        if (w->sc_candflag[u] && !w->sc_txflag[u])
                            w->sc_cand[ncand++] = u;
                    }
                    for (long j = 0; j < ncand; j++)
                        w->sc_tot[w->sc_cand[j]] = 0.0;
                    for (long i = 0; i < ntx; i++) {
                        const double *row = g + w->sc_tx[i] * n;
                        for (long j = 0; j < ncand; j++)
                            w->sc_tot[w->sc_cand[j]] += row[w->sc_cand[j]];
                    }
                    for (long i = 0; i < ntx; i++) {
                        const long s = w->sc_tx[i];
                        const double *row = g + s * n;
                        for (long j = 0; j < ncand; j++) {
                            const long u = w->sc_cand[j];
                            const double p = row[u];
                            const double sinr =
                                p / ((w->sc_tot[u] - p) + st->noise);
                            if (sinr >= st->beta) {
                                if (w->sc_decoded[u]) {
                                    atomic_store_explicit(
                                        &st->error, -2,
                                        memory_order_relaxed);
                                    return;
                                }
                                w->sc_decoded[u] = 1;
                                w->sc_rx_listener[nrx] = u;
                                w->sc_rx_sender[nrx] = s;
                                nrx++;
                            }
                        }
                    }
                } else {
                    for (long u = 0; u < n; u++)
                        w->sc_tot[u] = 0.0;
                    for (long i = 0; i < ntx; i++) {
                        const double *row = g + w->sc_tx[i] * n;
                        for (long u = 0; u < n; u++)
                            w->sc_tot[u] += row[u];
                    }
                    for (long i = 0; i < ntx; i++) {
                        const long s = w->sc_tx[i];
                        const double *row = g + s * n;
                        for (long u = 0; u < n; u++) {
                            if (w->sc_txflag[u])
                                continue; /* half-duplex */
                            const double p = row[u];
                            const double sinr =
                                p / ((w->sc_tot[u] - p) + st->noise);
                            if (sinr >= st->beta) {
                                if (w->sc_decoded[u]) {
                                    atomic_store_explicit(
                                        &st->error, -2,
                                        memory_order_relaxed);
                                    return;
                                }
                                w->sc_decoded[u] = 1;
                                w->sc_rx_listener[nrx] = u;
                                w->sc_rx_sender[nrx] = s;
                                nrx++;
                            }
                        }
                    }
                }
            }
            st->rx_totals[t] += nrx;

            /* Conditional wakeups (hit order), then deduped rcvs, then
             * reception feedback for the Ack fallback counters. */
            for (long i = 0; i < nrx; i++) {
                const long u = w->sc_rx_listener[i];
                if (!st->awake[base + u]) {
                    st->awake[base + u] = 1;
                    emit(w, t, slot, EV_WAKE, u, -1);
                }
            }
            for (long i = 0; i < nrx; i++) {
                const long u = w->sc_rx_listener[i];
                const long s = w->sc_rx_sender[i];
                unsigned char *cell_seen =
                    st->seen + (size_t)(base + u) * (size_t)n + (size_t)s;
                if (!*cell_seen) {
                    *cell_seen = 1;
                    emit(w, t, slot, EV_RCV, u, st->tx_mid[base + s])[5] = s;
                }
            }
            if (st->kind == 1) {
                for (long i = 0; i < nrx; i++) {
                    const long u = w->sc_rx_listener[i];
                    if (w->sc_stepped[u]) {
                        const long cell = base + u;
                        st->rc[cell] += 1;
                        if ((double)st->rc[cell] > st->rc_threshold[cell])
                            st->fallback_pending[cell] = 1;
                    }
                }
            }
            st->trial_slots[t] += 1;
        }
    }
}

static void fill_slot(repro_state *st, worker_slot *w, long th, long t0,
                      long t1) {
    const long n = st->n;
    w->st = st;
    w->t0 = t0;
    w->t1 = t1;
    w->events = st->events + th * st->ev_seg * EV_COLS;
    w->ev_len = st->ev_lens + th;
    w->sc_tx = st->sc_tx + th * n;
    w->sc_tot = st->sc_tot + th * n;
    w->sc_txflag = st->sc_txflag + th * n;
    w->sc_stepped = st->sc_stepped + th * n;
    w->sc_decoded = st->sc_decoded + th * n;
    w->sc_rx_listener = st->sc_rx_listener + th * n;
    w->sc_rx_sender = st->sc_rx_sender + th * n;
    w->sc_cand = st->sc_cand + th * n;
    w->sc_candflag = st->sc_candflag + th * n;
}

static void *worker_main(void *arg) {
    advance_range((worker_slot *)arg);
    return NULL;
}

/* Advance every live trial toward its target.  Returns 0 when every
 * thread ran to completion (a trial may still be short of target when
 * its thread's event segment filled — the shim drains and re-calls),
 * -2 on a beta > 1 uniqueness violation. */
long repro_advance_slots(repro_state *st) {
    long nt = st->nthreads;
    if (nt < 1)
        nt = 1;
    if (nt > MAX_THREADS)
        nt = MAX_THREADS;
    atomic_store_explicit(&st->error, 0, memory_order_relaxed);
    for (long th = 0; th < st->nthreads; th++)
        st->ev_lens[th] = 0;

    worker_slot slots[MAX_THREADS];
    const long per = (st->trials + nt - 1) / nt;
    for (long th = 0; th < nt; th++) {
        long t0 = th * per;
        long t1 = t0 + per;
        if (t0 > st->trials)
            t0 = st->trials;
        if (t1 > st->trials)
            t1 = st->trials;
        fill_slot(st, &slots[th], th, t0, t1);
    }

    if (nt == 1) {
        advance_range(&slots[0]);
        return atomic_load_explicit(&st->error, memory_order_relaxed);
    }

    pthread_t threads[MAX_THREADS];
    unsigned char started[MAX_THREADS];
    for (long th = 1; th < nt; th++)
        started[th] =
            pthread_create(&threads[th], NULL, worker_main, &slots[th]) == 0;
    advance_range(&slots[0]);
    for (long th = 1; th < nt; th++) {
        if (started[th])
            pthread_join(threads[th], NULL);
        else
            advance_range(&slots[th]); /* degraded serial fallback */
    }
    return atomic_load_explicit(&st->error, memory_order_relaxed);
}
