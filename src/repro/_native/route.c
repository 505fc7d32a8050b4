/*
 * Native kernels for the price router and the batched greedy walk.
 *
 * Compiled on first use by repro.kernels (-O2 -ffp-contract=off, no
 * fast-math) and called through ctypes. Every floating-point operation
 * below is the scalar reference's operation on the same operands in the
 * same order -- PriceConsciousRouter.allocate for price_prefs,
 * repro.routing.base.greedy_fill for greedy_walk -- so results are
 * bitwise identical to it, not merely close.
 *
 * The functions are re-entrant: scratch is malloc'd per call and no
 * state is static, so threaded engine chunks may call them at once.
 *
 * Arrays are C-contiguous; indices are int64, values double.
 */

#include <stdint.h>
#include <stdlib.h>

/* Return codes. */
#define ROUTE_OK 0
#define ROUTE_UNPLACED 1 /* greedy_walk: a state's demand did not fit */
#define ROUTE_BAD_INDEX -1
#define ROUTE_NO_MEMORY -2

/* (bucket, price within bucket, distance) lexicographic "a > b". */
static int pref_after(int bucket_a, double wbp_a, double d_a,
                      int bucket_b, double wbp_b, double d_b)
{
    if (bucket_a != bucket_b)
        return bucket_a > bucket_b;
    if (wbp_a != wbp_b)
        return wbp_a > wbp_b;
    return d_a > d_b;
}

/*
 * Per step t of a run of n_steps:
 *
 * - each state's preferred cluster: the closest candidate in the cheap
 *   bucket (price <= cheapest candidate price + threshold), ties to the
 *   lower cluster index;
 * - the fit test: per-cluster loads summed in state order (as
 *   np.bincount does), each <= limit + 1e-9;
 * - a fitting step's allocation (allocation[t, s, preferred] = demand);
 * - for a step that overflows, the full (bucket, price-within-bucket,
 *   distance) preference order of every state, stable by candidate
 *   index, padded past the candidate count with the state's first
 *   choice. Spill steps are written to prefs in step order.
 *
 * cands is (n_states, n_pad) ascending candidate indices, n_cands the
 * counts; limits has row stride limit_stride (0 = shared). fits gets 1
 * for a fitting step, 0 for a spill step. Returns the spill-step count,
 * or a negative error code.
 */
int64_t price_prefs(int64_t n_steps, int64_t n_states, int64_t n_clusters, int64_t n_pad,
                    const double *demand, const double *prices,
                    const double *limits, int64_t limit_stride,
                    const int64_t *cands, const int64_t *n_cands,
                    const double *distances, double threshold,
                    uint8_t *fits, double *allocation, int64_t *prefs)
{
    int64_t *preferred = malloc(sizeof(int64_t) * (size_t)(n_states ? n_states : 1));
    double *cutoff = malloc(sizeof(double) * (size_t)(n_states ? n_states : 1));
    double *loads = malloc(sizeof(double) * (size_t)(n_clusters ? n_clusters : 1));
    int *bucket = malloc(sizeof(int) * (size_t)(n_pad ? n_pad : 1));
    double *wbp = malloc(sizeof(double) * (size_t)(n_pad ? n_pad : 1));
    int64_t n_spill = 0;

    if (!preferred || !cutoff || !loads || !bucket || !wbp) {
        n_spill = ROUTE_NO_MEMORY;
        goto done;
    }
    for (int64_t s = 0; s < n_states; s++) {
        if (n_cands[s] < 1 || n_cands[s] > n_pad) {
            n_spill = ROUTE_BAD_INDEX;
            goto done;
        }
        for (int64_t k = 0; k < n_cands[s]; k++) {
            int64_t c = cands[s * n_pad + k];
            if (c < 0 || c >= n_clusters) {
                n_spill = ROUTE_BAD_INDEX;
                goto done;
            }
        }
    }

    for (int64_t t = 0; t < n_steps; t++) {
        const double *p = prices + t * n_clusters;
        const double *lim = limits + t * limit_stride;
        const double *dem = demand + t * n_states;

        for (int64_t c = 0; c < n_clusters; c++)
            loads[c] = 0.0;
        for (int64_t s = 0; s < n_states; s++) {
            const int64_t *cs = cands + s * n_pad;
            const double *ds = distances + s * n_clusters;
            double cheapest = p[cs[0]];
            for (int64_t k = 1; k < n_cands[s]; k++)
                if (p[cs[k]] < cheapest)
                    cheapest = p[cs[k]];
            cutoff[s] = cheapest + threshold;
            int64_t best = -1;
            for (int64_t k = 0; k < n_cands[s]; k++) {
                int64_t c = cs[k];
                if (p[c] <= cutoff[s] && (best < 0 || ds[c] < ds[best]))
                    best = c;
            }
            if (best < 0)
                best = cs[0];
            preferred[s] = best;
            loads[best] += dem[s];
        }

        int fit = 1;
        for (int64_t c = 0; c < n_clusters; c++)
            if (!(loads[c] <= lim[c] + 1e-9)) {
                fit = 0;
                break;
            }
        fits[t] = (uint8_t)fit;
        if (fit) {
            double *a = allocation + t * n_states * n_clusters;
            for (int64_t s = 0; s < n_states; s++)
                a[s * n_clusters + preferred[s]] = dem[s];
            continue;
        }

        int64_t *out = prefs + n_spill * n_states * n_pad;
        for (int64_t s = 0; s < n_states; s++) {
            const int64_t *cs = cands + s * n_pad;
            const double *ds = distances + s * n_clusters;
            int64_t n = n_cands[s];
            int64_t *row = out + s * n_pad;
            /* Stable insertion sort of the ascending candidates. */
            for (int64_t k = 0; k < n; k++) {
                int64_t c = cs[k];
                int b = p[c] > cutoff[s];
                double w = b ? p[c] : 0.0;
                int64_t pos = k;
                while (pos > 0 && pref_after(bucket[pos - 1], wbp[pos - 1], ds[row[pos - 1]],
                                             b, w, ds[c])) {
                    row[pos] = row[pos - 1];
                    bucket[pos] = bucket[pos - 1];
                    wbp[pos] = wbp[pos - 1];
                    pos--;
                }
                row[pos] = c;
                bucket[pos] = b;
                wbp[pos] = w;
            }
            for (int64_t k = n; k < n_pad; k++)
                row[k] = row[0];
        }
        n_spill++;
    }

done:
    free(preferred);
    free(cutoff);
    free(loads);
    free(bucket);
    free(wbp);
    return n_spill;
}

/*
 * The greedy spill walk of greedy_fill, for every step of a run.
 *
 * Per step t, states in order[t] pour their demand down their
 * preference row (prefs has row stride pref_stride per step, 0 when
 * shared), then spill what is left over the clusters the row does not
 * list, by descending headroom with ties to the lower index. headroom
 * (n_steps, n_clusters) is consumed in place. Step t's allocation is
 * added into out[out_rows[t]] (out_rows NULL: out[t]); out has n_out
 * zero-filled rows.
 *
 * A remainder above 1e-6 after the spill is unplaceable. The walk then
 * reports the one the vectorised numpy walk would raise for -- the
 * lowest failing rank, and the lowest step at that rank -- through
 * err_step / err_state / err_remaining, and returns ROUTE_UNPLACED.
 */
int64_t greedy_walk(int64_t n_steps, int64_t n_states, int64_t n_clusters, int64_t n_prefs,
                    const double *demand, const int64_t *prefs, int64_t pref_stride,
                    double *headroom, const int64_t *order,
                    double *out, const int64_t *out_rows, int64_t n_out,
                    int64_t *err_step, int64_t *err_state, double *err_remaining)
{
    unsigned char *listed = malloc((size_t)(n_clusters ? n_clusters : 1));
    int64_t *by_headroom = malloc(sizeof(int64_t) * (size_t)(n_clusters ? n_clusters : 1));
    int64_t status = ROUTE_OK;
    int64_t fail_rank = n_states;

    if (!listed || !by_headroom) {
        status = ROUTE_NO_MEMORY;
        goto done;
    }
    for (int64_t i = 0; i < (pref_stride ? n_steps : 1) * n_states * n_prefs; i++)
        if (prefs[i] < 0 || prefs[i] >= n_clusters) {
            status = ROUTE_BAD_INDEX;
            goto done;
        }
    for (int64_t t = 0; t < n_steps; t++) {
        int64_t row_t = out_rows ? out_rows[t] : t;
        if (row_t < 0 || row_t >= n_out) {
            status = ROUTE_BAD_INDEX;
            goto done;
        }
        for (int64_t rank = 0; rank < n_states; rank++) {
            int64_t s = order[t * n_states + rank];
            if (s < 0 || s >= n_states) {
                status = ROUTE_BAD_INDEX;
                goto done;
            }
        }
    }

    for (int64_t t = 0; t < n_steps; t++) {
        double *head = headroom + t * n_clusters;
        double *alloc = out + (out_rows ? out_rows[t] : t) * n_states * n_clusters;
        const int64_t *step_prefs = prefs + t * pref_stride;
        for (int64_t rank = 0; rank < n_states && rank < fail_rank; rank++) {
            int64_t s = order[t * n_states + rank];
            const int64_t *row = step_prefs + s * n_prefs;
            double *a = alloc + s * n_clusters;
            double remaining = demand[t * n_states + s];
            if (remaining <= 0.0)
                continue;
            for (int64_t k = 0; k < n_prefs; k++) {
                if (remaining <= 0.0)
                    break;
                int64_t c = row[k];
                double take = head[c] < remaining ? head[c] : remaining;
                if (take <= 0.0)
                    continue;
                a[c] += take;
                head[c] -= take;
                remaining -= take;
            }
            if (remaining > 1e-9) {
                /* Every listed cluster is drained (a revisit is a
                 * no-op), so only the unlisted ones can take. */
                for (int64_t c = 0; c < n_clusters; c++)
                    listed[c] = 0;
                for (int64_t k = 0; k < n_prefs; k++)
                    listed[row[k]] = 1;
                int64_t n_rest = 0;
                for (int64_t c = 0; c < n_clusters; c++) {
                    if (listed[c])
                        continue;
                    int64_t pos = n_rest++;
                    while (pos > 0 && head[by_headroom[pos - 1]] < head[c]) {
                        by_headroom[pos] = by_headroom[pos - 1];
                        pos--;
                    }
                    by_headroom[pos] = c;
                }
                for (int64_t i = 0; i < n_rest; i++) {
                    int64_t c = by_headroom[i];
                    double take = head[c] < remaining ? head[c] : remaining;
                    if (take <= 0.0)
                        continue;
                    a[c] += take;
                    head[c] -= take;
                    remaining -= take;
                    if (remaining <= 0.0)
                        break;
                }
            }
            if (remaining > 1e-6) {
                /* Steps run in ascending order, so a strictly lower
                 * rank is the only thing that can displace a report. */
                fail_rank = rank;
                *err_step = t;
                *err_state = s;
                *err_remaining = remaining;
                status = ROUTE_UNPLACED;
                break;
            }
        }
    }

done:
    free(listed);
    free(by_headroom);
    return status;
}
