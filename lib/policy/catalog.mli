val ports : int list
val chain8 : Policy.t
val fat_union4 : Policy.t
val star2 : Policy.t
val entries : (string * string * Policy.t) list
val find : string -> Policy.t option
val mutation_cases : (Compile.mutation * string) list
