/* Compiled tile bodies of the core-layer kernels -- RHS, UP, SOS, the
 * per-cell pressure of a dump or a diagnostic -- and of the compression
 * layer's: FWT / IWT, DEC, and ENC's byte-plane pack and unpack.
 *
 * Every function here is the per-element arithmetic of a NumPy kernel in
 * repro.physics / repro.core, statement for statement: the same IEEE
 * operations on the same operands in the same order, so results are
 * byte-identical to the NumPy path (which stays as the fallback and the
 * oracle the tests hold this file to).  What changes is where the
 * intermediates live: one row of lanes is reconstructed (WENO5), fluxed
 * (HLLE), differenced and summed while it sits in registers and small
 * stack arrays -- the paper's micro-fusion with a ring of two flux rows
 * (Section 6, Table 9) -- instead of ~220 array passes per tile.
 *
 * Build: gcc -O3 -ffp-contract=off -fno-fast-math (see native/__init__.py).
 * No contraction into FMAs, no reassociation: vector width never changes
 * a bit, so one library carries AVX-512, AVX2 and baseline clones of the
 * hot entry points and picks at load time (never SIGILL on another host).
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

#define NQ 7
enum { RHO = 0, RHOU = 1, RHOV = 2, RHOW = 3, ENERGY = 4, GAMMA = 5, PI = 6 };
/* Row of the HLLE-consistent interface velocity among the flux rows. */
#define USTAR NQ

/* Lanes of one row chunk: faces of an x pencil, cells of a z or y row. */
#define LANES 64

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define CLONES_AVX2 __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#define CLONES_AVX2
#endif
#define INLINE static inline __attribute__((always_inline))

#define WENO_EPS 1.0e-6
#define D0 0.1
#define D1 0.6
#define D2 0.3
#define C13 (13.0 / 12.0)
#define SIXTH (1.0 / 6.0)
#define SOUND_SPEED_FLOOR 1.0e-12

int repro_native_abi(void) { return 5; }
const char *repro_native_compiler(void) { return __VERSION__; }

/* np.maximum / np.minimum: a NaN in either operand is the result. */
INLINE double nmax(double a, double b)
{
    double m = a > b ? a : b; /* b where either is a NaN */
    return a != a ? a : m;
}
INLINE double nmin(double a, double b)
{
    double m = a < b ? a : b;
    return a != a ? a : m;
}

/* ---- WENO5: physics.weno._weno5_tables / _weno5_side ------------------ */

/* Table entries of the cell with neighbours lo and hi. */
INLINE double smooth_minus(double lo, double mid, double hi)
{
    double t = (lo - 2.0 * mid) + hi;
    return C13 * (t * t);
}
INLINE double smooth_plus(double lo, double mid, double hi)
{
    double t = (hi - 2.0 * mid) + lo;
    return C13 * (t * t);
}
INLINE double quarter_sq(double lo, double hi)
{
    double t = lo - hi;
    return 0.25 * (t * t);
}

/* One biased reconstruction; sb, sc, sd are the S entries of cells b, c, d
 * and qc the Q entry of cell c. */
INLINE double weno5_side(double a, double b, double c, double d, double e,
                         double sb, double sc, double sd, double qc)
{
    double t0, t1, t2, w0, w1, w2;
    t0 = (a - 4.0 * b) + 3.0 * c;
    t0 = 0.25 * (t0 * t0);
    w0 = sb + t0;
    w1 = sc + qc;
    t0 = (3.0 * c - 4.0 * d) + e;
    t0 = 0.25 * (t0 * t0);
    w2 = sd + t0;

    w0 = WENO_EPS + w0; w0 = w0 * w0; w0 = D0 / w0;
    w1 = WENO_EPS + w1; w1 = w1 * w1; w1 = D1 / w1;
    w2 = WENO_EPS + w2; w2 = w2 * w2; w2 = D2 / w2;

    t0 = (w0 + w1) + w2;
    t0 = 1.0 / t0;

    t1 = ((2.0 * a - 7.0 * b) + 11.0 * c) * SIXTH;
    t1 = w0 * t1;
    t2 = ((5.0 * c - b) + 2.0 * d) * SIXTH;
    t2 = w1 * t2;
    t1 = t1 + t2;
    t2 = ((2.0 * c + 5.0 * d) - e) * SIXTH;
    t2 = w2 * t2;
    t1 = t1 + t2;
    return t1 * t0;
}

/* Both face states of n lanes; lane i reads its six cells at
 * v[i + k * tap], k = 0..5. */
INLINE void weno5_row(const double *restrict v, ptrdiff_t tap, int n,
                      double *restrict minus, double *restrict plus)
{
    for (int i = 0; i < n; i++) {
        double v0 = v[i], v1 = v[i + tap], v2 = v[i + 2 * tap],
               v3 = v[i + 3 * tap], v4 = v[i + 4 * tap], v5 = v[i + 5 * tap];
        minus[i] = weno5_side(v0, v1, v2, v3, v4,
                              smooth_minus(v0, v1, v2),
                              smooth_minus(v1, v2, v3),
                              smooth_minus(v2, v3, v4), quarter_sq(v1, v3));
        /* The right-biased stencil is the mirror image. */
        plus[i] = weno5_side(v5, v4, v3, v2, v1,
                             smooth_plus(v3, v4, v5),
                             smooth_plus(v2, v3, v4),
                             smooth_plus(v1, v2, v3), quarter_sq(v2, v4));
    }
}

/* ---- HLLE: physics.riemann.hlle_flux --------------------------------- */

INLINE double sound_speed(double rho, double p, double G, double P)
{
    double o = G + 1.0;
    o = o * p;
    o = o + P;
    o = o / (G * rho);
    return sqrt(nmax(o, SOUND_SPEED_FLOOR));
}

INLINE double total_energy(double rho, double u, double v, double w, double p,
                           double G, double P)
{
    double work = (u * u + v * v) + w * w;
    work = (0.5 * rho) * work;
    return (G * p + P) + work;
}

/* _hlle_combine, the degenerate-span fallback decided per face: a span
 * that is not positive (both speeds zero, or NaN) takes the average. */
INLINE double combine(double s_r_p, double s_l_m, double prod, double span,
                      double F_l, double F_r, double dU)
{
    double t0 = s_r_p * F_l - s_l_m * F_r;
    t0 = (t0 + prod * dU) / (span > 0.0 ? span : 1.0);
    double average = 0.5 * (F_l + F_r);
    return span > 0.0 ? t0 : average;
}

/* Fluxes F[0..6] and interface velocity F[USTAR] of n faces from their
 * face states; mom_n is the momentum row normal to the faces. */
INLINE void hlle_row(const double (*restrict L)[LANES],
                     const double (*restrict R)[LANES], int n, int mom_n,
                     double (*restrict F)[LANES])
{
    for (int i = 0; i < n; i++) {
        double rho_l = L[RHO][i], p_l = L[ENERGY][i], G_l = L[GAMMA][i],
               P_l = L[PI][i], un_l = L[mom_n][i];
        double rho_r = R[RHO][i], p_r = R[ENERGY][i], G_r = R[GAMMA][i],
               P_r = R[PI][i], un_r = R[mom_n][i];

        double c_l = sound_speed(rho_l, p_l, G_l, P_l);
        double c_r = sound_speed(rho_r, p_r, G_r, P_r);
        double s_l = nmin(un_l - c_l, un_r - c_r);
        double s_r = nmax(un_l + c_l, un_r + c_r);
        double s_l_m = nmin(s_l, 0.0);
        double s_r_p = nmax(s_r, 0.0);
        double span = s_r_p - s_l_m;
        double prod = s_l_m * s_r_p;
#define COMBINE(F_l, F_r, dU) \
    combine(s_r_p, s_l_m, prod, span, F_l, F_r, dU)

        double a_l = rho_l * un_l, a_r = rho_r * un_r;
        F[RHO][i] = COMBINE(a_l, a_r, rho_r - rho_l);

        for (int comp = RHOU; comp <= RHOW; comp++) {
            double F_l = a_l * L[comp][i], F_r = a_r * R[comp][i], dU;
            if (comp == mom_n) {
                F_l = F_l + p_l;
                F_r = F_r + p_r;
                dU = a_r - a_l;
            } else {
                dU = rho_r * R[comp][i] - rho_l * L[comp][i];
            }
            F[comp][i] = COMBINE(F_l, F_r, dU);
        }

        double E_l = total_energy(rho_l, L[RHOU][i], L[RHOV][i], L[RHOW][i],
                                  p_l, G_l, P_l);
        double E_r = total_energy(rho_r, R[RHOU][i], R[RHOV][i], R[RHOW][i],
                                  p_r, G_r, P_r);
        F[ENERGY][i] = COMBINE((E_l + p_l) * un_l, (E_r + p_r) * un_r,
                               E_r - E_l);
        F[GAMMA][i] = COMBINE(G_l * un_l, G_r * un_r, G_r - G_l);
        F[PI][i] = COMBINE(P_l * un_l, P_r * un_r, P_r - P_l);
        F[USTAR][i] = COMBINE(un_l, un_r, 0.0);
#undef COMBINE
    }
}

/* WENO5 -> HLLE of n faces: quantity q of lane i has its stencil at
 * W[q * qstride + i + k * tap].  Not inlined: the one body that is most of
 * this file is compiled once per clone, not once per sweep (a third of
 * the compiler's time and half of its memory). */
static CLONES __attribute__((noinline)) void
face_fluxes(const double *restrict W, ptrdiff_t qstride, ptrdiff_t tap,
            int n, int mom_n, double (*restrict F)[LANES])
{
    double minus[NQ][LANES], plus[NQ][LANES];
    for (int q = 0; q < NQ; q++)
        weno5_row(W + q * qstride, tap, n, minus[q], plus[q]);
    hlle_row(minus, plus, n, mom_n, F);
}

/* Difference and SUM stage of n cells between the flux rows lo and hi
 * (row stride LANES): div = (hi - lo) * inv_h, phi * du on the advected
 * rows, `0.0 - div` / `corr - div` stored (z sweep) or added (y, x). */
INLINE void sum_row(const double *restrict lo, const double *restrict hi,
                    const double *restrict centre, ptrdiff_t wstride,
                    double *restrict out, ptrdiff_t rstride, int n,
                    double inv_h, int store)
{
    for (int q = 0; q < NQ; q++) {
        const double *flo = lo + q * LANES, *fhi = hi + q * LANES;
        const double *ulo = lo + USTAR * LANES, *uhi = hi + USTAR * LANES;
        const double *phi = centre + q * wstride;
        double *dst = out + q * rstride;
        for (int i = 0; i < n; i++) {
            double div = (fhi[i] - flo[i]) * inv_h;
            double term;
            if (q < GAMMA) {
                term = 0.0 - div;
            } else {
                double du = (uhi[i] - ulo[i]) * inv_h;
                term = phi[i] * du - div;
            }
            dst[i] = store ? term : dst[i] + term;
        }
    }
}

/* One z or y sweep of a block: rows of lanes along x, faces walked along
 * the sweep axis with a ring of two flux rows. */
INLINE void sweep_rows(const double *restrict Wb, ptrdiff_t wstride,
                       double *restrict Rb, ptrdiff_t rstride,
                       long nouter, long nsweep, long nx,
                       ptrdiff_t w_outer, ptrdiff_t w_sweep, ptrdiff_t w_origin,
                       ptrdiff_t r_outer, ptrdiff_t r_sweep,
                       int mom_n, double inv_h, int store)
{
    double ring[2][NQ + 1][LANES];
    for (long o = 0; o < nouter; o++) {
        for (long x0 = 0; x0 < nx; x0 += LANES) {
            int n = (int)(nx - x0 < LANES ? nx - x0 : LANES);
            /* lane 0 of face 0: the first of its six cells */
            const double *w = Wb + w_origin + o * w_outer + x0;
            double *r = Rb + o * r_outer + x0;
            for (long j = 0; j <= nsweep; j++) {
                face_fluxes(w + j * w_sweep, wstride, w_sweep, n, mom_n,
                            ring[j & 1]);
                if (j > 0)
                    sum_row(&ring[(j - 1) & 1][0][0], &ring[j & 1][0][0],
                            w + (j + 2) * w_sweep, wstride,
                            r + (j - 1) * r_sweep, rstride, n, inv_h, store);
            }
        }
    }
}

/* All three directional sweeps of a primitive SoA batch
 * W (NQ, B, nz+6, ny+6, nx+6) into rhs (NQ, B, nz, ny, nx):
 * physics.equations.compute_rhs after its CONV stage. */
CLONES void repro_rhs_sweeps(const double *restrict W, long B, long nz,
                             long ny, long nx, double inv_h,
                             double *restrict rhs)
{
    const long my = ny + 6, mx = nx + 6;
    const ptrdiff_t wplane = (ptrdiff_t)my * mx;
    const ptrdiff_t wblock = (ptrdiff_t)(nz + 6) * wplane;
    const ptrdiff_t rplane = (ptrdiff_t)ny * nx;
    const ptrdiff_t rblock = (ptrdiff_t)nz * rplane;
    const ptrdiff_t wstride = B * wblock, rstride = B * rblock;

    for (long b = 0; b < B; b++) {
        const double *Wb = W + b * wblock;
        double *Rb = rhs + b * rblock;

        /* z: rows (y), faces along z, normal velocity w */
        sweep_rows(Wb, wstride, Rb, rstride, ny, nz, nx,
                   mx, wplane, 3 * mx + 3, nx, rplane, RHOW, inv_h, 1);
        /* y: rows (z), faces along y, normal velocity v */
        sweep_rows(Wb, wstride, Rb, rstride, nz, ny, nx,
                   wplane, mx, 3 * wplane + 3, rplane, nx, RHOV, inv_h, 0);
        /* x: the faces of a row are the lanes, normal velocity u */
        for (long zy = 0; zy < nz * ny; zy++) {
            long z = zy / ny, y = zy % ny;
            const double *w = Wb + (z + 3) * wplane + (y + 3) * mx;
            double *r = Rb + z * rplane + y * nx;
            for (long x0 = 0; x0 < nx; x0 += LANES - 1) {
                int n = (int)(nx - x0 < LANES - 1 ? nx - x0 : LANES - 1);
                double F[NQ + 1][LANES];
                face_fluxes(w + x0, wstride, 1, n + 1, RHOU, F);
                sum_row(&F[0][0], &F[0][1], w + x0 + 3, wstride, r + x0,
                        rstride, n, inv_h, 0);
            }
        }
    }
}

/* ---- staging around the sweeps: core.kernels.rhs_kernel -------------- */

/* physics.eos.pressure_into: its kinetic energy term, then the pressure */
INLINE double kinetic(double rho, double ru, double rv, double rw)
{
    double o = (ru * ru + rv * rv) + rw * rw;
    return (0.5 * o) / rho;
}

INLINE double pressure(double rho, double ru, double rv, double rw, double E,
                       double G, double P)
{
    return ((E - kinetic(rho, ru, rv, rw)) - P) / G;
}

/* n AoS storage-precision conserved states, `step` values apart ->
 * SoA chunk of LANES */
INLINE void gather_chunk(const float *restrict aos, ptrdiff_t step, int n,
                         double (*restrict U)[LANES])
{
    for (int i = 0; i < n; i++)
        for (int q = 0; q < NQ; q++)
            U[q][i] = (double)aos[i * step + q];
}

/* One row of a gather or scatter plan (core.kernels.plan_row): the
 * ez * ey * ex cells from `cell` on of an SoA field, x rows contiguous,
 * and the AoS cells (NQ values each) they are read from or written to --
 * their address and their steps along z, y and x in values (0 repeats a
 * layer, a negative one mirrors).  flip: the momentum row negated on the
 * way in, or -1. */
typedef struct {
    long long cell, ez, ey, ex, aos, sz, sy, sx, flip;
} plan_row;

static const volatile double MINUS_ONE = -1.0;

/* Storage-precision AoS cells -> float64 primitive SoA field W (NQ, cells)
 * whose rows are mx cells and planes my rows apart: the rows of the plan
 * one after another, each cell through the staging copy and
 * physics.eos.conserved_to_primitive in one pass.  Cells of W that no row
 * names are not written. */
CLONES void repro_gather_conv(const plan_row *restrict plan, long rows,
                              long my, long mx, long cells,
                              double *restrict W)
{
    for (const plan_row *p = plan; p < plan + rows; p++) {
        const float *aos = (const float *)(size_t)p->aos;
        for (long zy = 0, z = 0, y = 0; zy < p->ez * p->ey; zy++) {
            const float *src = aos + z * p->sz + y * p->sy;
            double *dst = W + p->cell + (z * my + y) * mx;
            if (++y == p->ey)
                y = 0, z++;
            for (long x0 = 0; x0 < p->ex; x0 += LANES) {
                int n = (int)(p->ex - x0 < LANES ? p->ex - x0 : LANES);
                double U[NQ][LANES];
                gather_chunk(src + x0 * p->sx, p->sx, n, U);
                if (p->flip >= 0) {
                    /* `*= -1.0` as NumPy multiplies: a NaN keeps its sign
                     * (a literal factor is folded into a negation, which
                     * flips it) */
                    double factor = MINUS_ONE;
                    for (int i = 0; i < n; i++)
                        U[p->flip][i] = U[p->flip][i] * factor;
                }
                for (int i = 0; i < n; i++) {
                    double rho = U[RHO][i], inv = 1.0 / rho;
                    double pr = pressure(rho, U[RHOU][i], U[RHOV][i],
                                         U[RHOW][i], U[ENERGY][i],
                                         U[GAMMA][i], U[PI][i]);
                    U[RHOU][i] = U[RHOU][i] * inv;
                    U[RHOV][i] = U[RHOV][i] * inv;
                    U[RHOW][i] = U[RHOW][i] * inv;
                    U[ENERGY][i] = pr;
                }
                for (int q = 0; q < NQ; q++)
                    for (int i = 0; i < n; i++)
                        dst[q * cells + x0 + i] = U[q][i];
            }
        }
    }
}

/* The way back: rows of the SoA result R (NQ, cells), rx cells long and
 * planes ry rows apart, -> the float64 AoS cells the plan names. */
void repro_scatter_aos(const double *restrict R, long ry, long rx,
                       long cells, const plan_row *restrict plan, long rows)
{
    for (const plan_row *p = plan; p < plan + rows; p++) {
        double *aos = (double *)(size_t)p->aos;
        for (long zy = 0, z = 0, y = 0; zy < p->ez * p->ey; zy++) {
            const double *src = R + p->cell + (z * ry + y) * rx;
            double *dst = aos + z * p->sz + y * p->sy;
            if (++y == p->ey)
                y = 0, z++;
            for (long x0 = 0; x0 < p->ex; x0 += LANES) {
                long n = p->ex - x0 < LANES ? p->ex - x0 : LANES;
                for (int q = 0; q < NQ; q++)
                    for (long x = x0; x < x0 + n; x++)
                        dst[x * p->sx + q] = src[q * cells + x];
            }
        }
    }
}

/* ---- UP: core.kernels._update_chunk ---------------------------------- */

CLONES void repro_update_stage(float *restrict u, float *restrict res,
                               const double *restrict rhs, long n, double a,
                               double b, double dt)
{
    for (long i = 0; i < n; i++) {
        double s = (double)res[i] * a + dt * rhs[i];
        res[i] = (float)s;
        u[i] = (float)((double)u[i] + b * s);
    }
}

/* ---- SOS: physics.eos.max_velocity_of_conserved ---------------------- */

/* max(|u_i| + c) over AoS cells of storage precision; NaN if any cell's
 * velocity is. */
CLONES double repro_max_sos(const float *restrict aos, long cells)
{
    /* per lane: the largest speed, and a NaN once one was seen */
    double peak[LANES], poison[LANES];
    for (int i = 0; i < LANES; i++) {
        peak[i] = -INFINITY;
        poison[i] = 0.0;
    }
    for (long c0 = 0; c0 < cells; c0 += LANES) {
        int n = (int)(cells - c0 < LANES ? cells - c0 : LANES);
        double U[NQ][LANES];
        gather_chunk(aos + c0 * NQ, NQ, n, U);
        for (int i = 0; i < n; i++) {
            double rho = U[RHO][i], G = U[GAMMA][i], P = U[PI][i];
            double p = pressure(rho, U[RHOU][i], U[RHOV][i], U[RHOW][i],
                                U[ENERGY][i], G, P);
            double inv = 1.0 / rho;
            double au = fabs(U[RHOU][i] * inv);
            double av = fabs(U[RHOV][i] * inv);
            double aw = fabs(U[RHOW][i] * inv);
            double speed = nmax(au, nmax(av, aw))
                           + sound_speed(rho, p, G, P);
            poison[i] = speed != speed ? speed : poison[i];
            peak[i] = speed > peak[i] ? speed : peak[i];
        }
    }
    double best = -INFINITY;
    for (int i = 0; i < LANES; i++)
        best = nmax(poison[i], nmax(best, peak[i]));
    return best;
}

/* ---- p and ke per cell: core.kernels.cell_pressure ------------------- */

/* Pressure (and, where ke is not NULL, the kinetic energy density) of
 * AoS cells of storage precision, one float64 each, in cell order. */
CLONES void repro_cell_pressure(const float *restrict aos, long cells,
                                double *restrict p, double *restrict ke)
{
    for (long c0 = 0; c0 < cells; c0 += LANES) {
        int n = (int)(cells - c0 < LANES ? cells - c0 : LANES);
        double U[NQ][LANES];
        gather_chunk(aos + c0 * NQ, NQ, n, U);
        for (int i = 0; i < n; i++)
            p[c0 + i] = pressure(U[RHO][i], U[RHOU][i], U[RHOV][i],
                                 U[RHOW][i], U[ENERGY][i], U[GAMMA][i],
                                 U[PI][i]);
        if (ke)
            for (int i = 0; i < n; i++)
                ke[c0 + i] = kinetic(U[RHO][i], U[RHOU][i], U[RHOV][i],
                                     U[RHOW][i]);
    }
}

/* ---- FWT / IWT: compression.wavelet._lift ---------------------------- */

/* Slot k of m is predicted from four evens `s` apart, the first of them
 * FIRST_TAP, by stencil STENCIL of w (centre, left, right inner, right
 * outer, 4 weights each): ((e0*w0 + e1*w1) + e2*w2) + e3*w3 in float64,
 * rounded once to the data's type before it meets the fine sample. */
#define FIRST_TAP(k, m) ((k) == 0 ? 0 : (k) >= (m) - 2 ? (m) - 4 : (k) - 1)
#define STENCIL(k, m) \
    ((k) == 0 ? 1 : (k) == (m) - 2 ? 2 : (k) == (m) - 1 ? 3 : 0)
#define PREDICT(e, s, wk) \
    ((((e)[0] * (wk)[0] + (e)[s] * (wk)[1]) + (e)[2 * (s)] * (wk)[2]) \
     + (e)[3 * (s)] * (wk)[3])

/* STEP: one lifting step in place, [even, odd, ...] <-> [coarse | detail],
 * along n samples `ks` apart in each of len lanes `ls` apart.  The samples
 * are staged lane-contiguous in `even` (n * len doubles: the coarse half
 * converted once, the other half as it is) -- for the x step, whose lanes
 * are the rows of a plane, that is the paper's transposition -- and
 * filtered from there, a vector of lanes at a time (converting and
 * streaming: no faster on 512-bit lanes, so no such clone to compile).
 * BATCH: every level of every block: x and y plane by plane, then z, on
 * the coarse corner, fine to coarse -- or all of it backwards. */
#define LIFT(T, STEP, BATCH)                                                  \
static CLONES_AVX2 __attribute__((noinline)) void                             \
STEP(T *restrict a, ptrdiff_t ks, ptrdiff_t ls, long n, long len,             \
     int inverse, const double *restrict w, double *restrict even)            \
{                                                                             \
    const long m = n / 2;                                                     \
    T *restrict fine = (T *)(even + m * len);                                 \
    for (long k = 0; k < m; k++) {                                            \
        const T *c = a + (inverse ? k : 2 * k) * ks;                          \
        const T *f = c + (inverse ? m : 1) * ks;                              \
        for (long i = 0; i < len; i++) {                                      \
            even[k * len + i] = (double)c[i * ls];                            \
            fine[k * len + i] = f[i * ls];                                    \
        }                                                                     \
    }                                                                         \
    for (long k = 0; k < m; k++) {                                            \
        const double *e = even + FIRST_TAP(k, m) * len;                       \
        const double *wk = w + 4 * STENCIL(k, m);                             \
        T *c = a + (inverse ? 2 * k : k) * ks;                                \
        T *f = c + (inverse ? 1 : m) * ks;                                    \
        for (long i = 0; i < len; i++) {                                      \
            T p = (T)PREDICT(e + i, len, wk), d = fine[k * len + i];          \
            c[i * ls] = (T)even[k * len + i];                                 \
            f[i * ls] = inverse ? d + p : d - p;                              \
        }                                                                     \
    }                                                                         \
}                                                                             \
static void BATCH(T *blocks, long B, long Nz, long Ny, long Nx, long levels,  \
                  int inverse, const double *w, double *scratch)              \
{                                                                             \
    const ptrdiff_t plane = (ptrdiff_t)Ny * Nx;                               \
    for (T *a = blocks; a < blocks + B * Nz * plane; a += Nz * plane)         \
        for (long l = 0; l < levels; l++) {                                   \
            long lvl = inverse ? levels - 1 - l : l;                          \
            long nz = Nz >> lvl, ny = Ny >> lvl, nx = Nx >> lvl;              \
            for (long y = 0; inverse && y < ny; y++)                          \
                STEP(a + y * Nx, plane, 1, nz, nx, inverse, w, scratch);      \
            for (long z = 0; z < nz; z++) {                                   \
                if (inverse)                                                  \
                    STEP(a + z * plane, Nx, 1, ny, nx, inverse, w, scratch);  \
                STEP(a + z * plane, 1, Nx, nx, ny, inverse, w, scratch);      \
                if (!inverse)                                                 \
                    STEP(a + z * plane, Nx, 1, ny, nx, inverse, w, scratch);  \
            }                                                                 \
            for (long y = 0; !inverse && y < ny; y++)                         \
                STEP(a + y * Nx, plane, 1, nz, nx, inverse, w, scratch);      \
        }                                                                     \
}
LIFT(float, lift_step_f32, lift_batch_f32)
LIFT(double, lift_step_f64, lift_batch_f64)

/* compression.wavelet.lift_batch of a C-contiguous (B, nz, ny, nx) batch of
 * float32 (itemsize 4) or float64; w: the 16 weights; scratch: max(nz, ny)
 * * nx doubles of the caller's (ranks compress concurrently: no statics). */
void repro_lift(void *blocks, long B, long nz, long ny, long nx,
                       long levels, long inverse, long itemsize,
                       const double *w, double *scratch)
{
    if (itemsize == 4)
        lift_batch_f32(blocks, B, nz, ny, nx, levels, inverse != 0, w,
                       scratch);
    else
        lift_batch_f64(blocks, B, nz, ny, nx, levels, inverse != 0, w,
                       scratch);
}

/* ---- DEC: compression.decimation.decimate_batch ---------------------- */

/* +0.0 into every coefficient outside the coarse corner with |c| < t in the
 * data's precision (a NaN stays); zeroed[b]: how many of block b. */
#define DECIMATE(T, NAME, ABS)                                                \
INLINE void NAME(T *restrict c, long B, long nz, long ny, long nx,            \
                 long levels, T t, long long *restrict zeroed)                \
{                                                                             \
    const long cz = nz >> levels, cy = ny >> levels, cx = nx >> levels;       \
    for (long b = 0; b < B; b++) {                                            \
        long long count = 0;                                                  \
        for (long zy = 0; zy < nz * ny; zy++, c += nx) {                      \
            long x = zy / ny < cz && zy % ny < cy ? cx : 0;                   \
            for (; x < nx; x++) {                                             \
                int small = ABS(c[x]) < t;                                    \
                count += small;                                               \
                c[x] = small ? (T)0.0 : c[x];                                 \
            }                                                                 \
        }                                                                     \
        zeroed[b] = count;                                                    \
    }                                                                         \
}
DECIMATE(float, decimate_f32, fabsf)
DECIMATE(double, decimate_f64, fabs)

CLONES_AVX2 void repro_decimate(void *blocks, long B, long nz, long ny,
                                long nx, long levels, long itemsize,
                                double t, long long *zeroed)
{
    if (itemsize == 4) /* NumPy rounds the threshold to the data's type */
        decimate_f32(blocks, B, nz, ny, nx, levels, (float)t, zeroed);
    else
        decimate_f64(blocks, B, nz, ny, nx, levels, t, zeroed);
}

/* ---- ENC: compression.encoder.pack_planes / unpack_planes ------------ */

/* The bit-reversal of every byte: a map byte holds its first element in
 * the top bit, a mask of 64 elements its first in bit 0. */
static const unsigned char REVERSED[256] = {
#define R2(n) n, n + 2 * 64, n + 1 * 64, n + 3 * 64
#define R4(n) R2(n), R2(n + 2 * 16), R2(n + 1 * 16), R2(n + 3 * 16)
#define R6(n) R4(n), R4(n + 2 * 4), R4(n + 1 * 4), R4(n + 3 * 4)
    R6(0), R6(2), R6(1), R6(3)
#undef R2
#undef R4
#undef R6
};

/* Set bits of x. */
INLINE long popcount64(unsigned long long x)
{
    x -= x >> 1 & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + (x >> 2 & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (long)(x * 0x0101010101010101ULL >> 56);
}

/* The 64 bits of map at byte (bytes of them where it ends), bit j set
 * where element j of the 64 is significant. */
INLINE unsigned long long map_mask(const unsigned char *byte, long bytes)
{
    unsigned long long word = 0, mask = 0;
    memcpy(&word, byte, bytes);
    for (long b = 0; word && b < bytes; b++)
        mask |= (unsigned long long)REVERSED[byte[b]] << (8 * b);
    return mask;
}

/* What a stream inflates to, from n elements of type T at src: the
 * significance map -- bit i (the top bit of byte i / 8 first) set where
 * element i is not all-zero bits -- then plane k, byte k (in memory
 * order) of every significant element, for each k.  A first sweep writes
 * the map 64 elements at a time (a zero run of them in one test) and
 * packs the survivors past where the planes can reach (the caller's out
 * holds map_size + (2 n + 1) sizeof(T) bytes); a second deals them into
 * the planes.  hist[s * 256 + b] (zeroed by the caller) counts byte b in
 * segment s (0 the map, 1 + k plane k), a plane in four tables so that
 * repeats of one byte do not wait on each other.  Returns the survivor
 * count. */
#define PACK(T, NAME)                                                         \
static CLONES_AVX2 long NAME(const T *restrict src, long n,                   \
                             unsigned char *restrict out,                     \
                             long long *restrict hist)                        \
{                                                                             \
    enum { W = sizeof(T) };                                                   \
    const long map_size = (n + 7) / 8;                                        \
    T *restrict packed = (T *)(out + ((map_size + n * W) / W + 1) * W);      \
    long count = 0;                                                           \
    for (long i = 0; i < n; i += 64) {                                        \
        const long len = n - i < 64 ? n - i : 64, bytes = (len + 7) / 8;      \
        T any = 0;                                                            \
        for (long j = 0; j < len; j++)                                        \
            any |= src[i + j];                                                \
        if (!any) {                                                           \
            memset(out + i / 8, 0, bytes);                                    \
            hist[0] += bytes;                                                 \
            continue;                                                         \
        }                                                                     \
        unsigned long long mask = 0;                                          \
        for (long j = 0; j < len; j++)                                        \
            mask |= (unsigned long long)(src[i + j] != 0) << j;               \
        for (unsigned long long m = mask; m; m &= m - 1)                      \
            packed[count++] = src[i + __builtin_ctzll(m)];                    \
        for (long b = 0; b < bytes; b++) {                                    \
            const unsigned char byte = REVERSED[mask >> (8 * b) & 0xFF];      \
            out[i / 8 + b] = byte;                                            \
            hist[byte]++;                                                     \
        }                                                                     \
    }                                                                         \
    const unsigned char *restrict survivors = (const unsigned char *)packed;  \
    for (long k = 0; k < W; k++) {                                            \
        unsigned char *restrict plane = out + map_size + k * count;           \
        unsigned h[4][256] = {{0}};                                           \
        for (long j = 0; j < count; j++)                                      \
            plane[j] = survivors[j * W + k];                                  \
        long j = 0;                                                           \
        for (; j + 4 <= count; j += 4) {                                      \
            h[0][plane[j]]++;                                                 \
            h[1][plane[j + 1]]++;                                             \
            h[2][plane[j + 2]]++;                                             \
            h[3][plane[j + 3]]++;                                             \
        }                                                                     \
        for (; j < count; j++)                                                \
            h[0][plane[j]]++;                                                 \
        for (int b = 0; b < 256; b++)                                         \
            hist[(1 + k) * 256 + b] = (long long)h[0][b] + h[1][b]            \
                                      + h[2][b] + h[3][b];                    \
    }                                                                         \
    return count;                                                             \
}
PACK(unsigned int, pack4)
PACK(unsigned long long, pack8)

long repro_pack_planes(const void *src, long n, long itemsize,
                       unsigned char *out, long long *hist)
{
    return itemsize == 4 ? pack4(src, n, out, hist)
                         : pack8(src, n, out, hist);
}

/* The inverse into n zeroed elements of W bytes at dst, from the avail
 * bytes at raw: the survivors back where the map's bits say, 64 map bits
 * at a time.  Returns the map's count of set bits (pad bits left out);
 * writes nothing unless the planes hold exactly that many elements. */
#define UNPACK(W, NAME)                                                       \
static long NAME(const unsigned char *restrict raw, long n, long avail,      \
                 unsigned char *restrict dst)                                 \
{                                                                             \
    const long map_size = (n + 7) / 8;                                        \
    long count = 0, i = 0;                                                    \
    for (unsigned long long w; i + 8 <= map_size; i += 8) {                   \
        memcpy(&w, raw + i, 8);                                               \
        count += popcount64(w);                                               \
    }                                                                         \
    for (; i < map_size; i++)                                                 \
        count += popcount64(raw[i]);                                          \
    if (n % 8)                                                                \
        count -= popcount64(raw[map_size - 1] & (0xFF >> (n % 8)));           \
    if (avail != map_size + count * W)                                        \
        return count;                                                         \
    const unsigned char *restrict planes = raw + map_size;                    \
    long j = 0;                                                               \
    for (i = 0; i < n; i += 64) {                                             \
        const long bytes = map_size - i / 8 < 8 ? map_size - i / 8 : 8;       \
        unsigned long long mask = map_mask(raw + i / 8, bytes);               \
        if (n - i < 64) /* the pad bits */                                    \
            mask &= (1ULL << (n - i)) - 1;                                    \
        for (; mask; mask &= mask - 1, j++) {                                 \
            unsigned char *d = dst + (i + __builtin_ctzll(mask)) * W;         \
            for (long k = 0; k < W; k++)                                      \
                d[k] = planes[k * count + j];                                 \
        }                                                                     \
    }                                                                         \
    return count;                                                             \
}
UNPACK(4, unpack4)
UNPACK(8, unpack8)

long repro_unpack_planes(const unsigned char *raw, long n, long itemsize,
                         long avail, unsigned char *dst)
{
    return itemsize == 4 ? unpack4(raw, n, avail, dst)
                         : unpack8(raw, n, avail, dst);
}
