(** Cause-effect fault diagnosis from full response data.

    The paper argues (Sections 1 and 8) that avoiding a MISR preserves "the
    possible loss of information for fault diagnosis". This module is that
    information put to work: a {e fault dictionary} maps every modelled
    fault to its complete observed response under a test set, so a failing
    response observed on the tester narrows the defect down to the matching
    candidates. The diagnostic {e resolution} (average candidates per
    distinguishable behaviour) is the quality metric the MISR study
    compares. *)

type response = bool array list
(** One frame per applied test: primary outputs concatenated with the
    captured scan cells, in application order. *)

val responses :
  Tvs_sim.Parallel.t ->
  tests:(bool array * bool array) array ->
  Fault.t array ->
  response * response array
(** The fault-free machine's full response to [(pi, scan)] tests, each
    applied independently (full-shift observation), and every fault's, in
    order. Up to 62 faults share one pass of {!Tvs_sim.Parallel.run}. *)

val respond :
  Tvs_sim.Parallel.t ->
  tests:(bool array * bool array) array ->
  ?fault:Fault.t ->
  unit ->
  response
(** One machine's response from {!responses}: the fault-free one, or
    [fault]'s. *)

val key_of : response -> string
(** The response as one string of ['0'] and ['1'], frame after frame: equal
    keys are equal responses. *)

type dictionary

val build :
  Tvs_sim.Parallel.t -> faults:Fault.t array -> tests:(bool array * bool array) array -> dictionary

type outcome =
  | No_defect  (** the observation equals the fault-free response *)
  | Candidates of Fault.t list
      (** modelled faults whose dictionary entry matches, dictionary order *)
  | Unknown_defect  (** fails, but matches no single-stuck-at entry *)

val diagnose : dictionary -> observed:response -> outcome

val num_detected : dictionary -> int
(** Faults whose response differs from the fault-free machine's. *)

val num_classes : dictionary -> int
(** Distinct faulty behaviours among detected faults. *)

val resolution : dictionary -> float
(** [num_detected / num_classes]: 1.0 is perfect (every detected fault
    uniquely identifiable). *)
