(** Bundled fast matrix multiplication algorithms.

    All instances are verified exactly by the test suite via
    {!Verify.exact}. *)

val naive : t_dim:int -> Bilinear.t
(** The definitional algorithm [<T,T,T; T^3>]: one multiplication per
    [(i,k,j)] triple.  Requires [t_dim >= 1]. *)

val strassen : Bilinear.t
(** Strassen's [<2,2,2;7>] algorithm, exactly as printed in the paper's
    Figure 1.  Sparsity profile (Definition 2.1): [s_A = s_B = s_C = 12],
    so [alpha = 7/12], [beta = 3], [gamma ~ 0.491]. *)

val winograd : Bilinear.t
(** The Winograd variant of Strassen's algorithm ([<2,2,2;7>] with 15
    additions).  Same rank as Strassen but strictly worse sparsity
    ([s = 14] vs [12]) — the ablation benchmark E6 uses this to show the
    paper's gate bound really depends on sparsity, not only rank. *)

val strassen_squared : Bilinear.t
(** [strassen ⊗ strassen]: a [<4,4,4;49>] algorithm (same omega, larger
    base case — fewer circuit levels per leaf depth).  Derived via
    {!Bilinear.kronecker}. *)

val laderman : Bilinear.t
(** Laderman's [<3,3,3;23>] algorithm — the base-3 point of the
    algorithm matrix ([omega ~ 2.854]).  [s_A = s_B = s_C = 51], so the
    rank beats naive-3's 27 while the linear layers are much denser than
    Strassen's; its Theorem 4.5 constants come straight out of
    {!Sparsity.analyze}. *)

val all : unit -> Bilinear.t list
(** The instances above (with [naive] at [T = 2] and [T = 3]), in a
    stable presentation order for tables. *)

val find : string -> (Bilinear.t, string) result
(** The instance of {!all} with this {!Bilinear.name}; the error names
    the known ones. *)
