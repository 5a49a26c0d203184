(** Static test-set compaction: greedy pairwise merging of compatible cubes
    (their specified bits do not conflict), folding each cube into the first
    compatible survivor in reverse generation order. Detection is preserved
    structurally: a merged cube keeps every specified bit of its members,
    and a PODEM cube detects its target under {e any} fill. *)

val merge_cubes : Cube.t list -> Cube.t list
(** Result length <= input length; application order of survivors is
    preserved. *)
