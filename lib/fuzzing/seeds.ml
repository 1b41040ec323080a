(* Seed corpus.

   The paper bootstraps its fuzzers with 1,839 seeds from the GCC and
   Clang test suites: small, feature-rich, well-formed C programs.  We
   synthesize an equivalent corpus from (a) hand-written templates that
   cover libc calls, strings, gotos, switches and structs the way
   compiler test suites do (including the shapes behind the paper's case
   studies), and (b) generated programs from Ast_gen. *)

open Cparse

(* Templates modelled on the compiler-test-suite idioms the paper's bug
   cases started from (e.g. GCC test #20001226-1's label-dense functions
   and the strlen-optimization sprintf test). *)
let templates : string list =
  [
    (* sprintf / strlen-optimization shape *)
    {|
static char buffer[32];
int test4(void) { return sprintf(buffer, "%s", "bar"); }
void main_test(void) {
  memset(buffer, 65, 32);
  if (test4() != 3) abort();
}
int main(void) { main_test(); return 0; }
|};
    (* label-dense function (GCC #20001226-1 flavour) *)
    {|
unsigned int foo(int x, int y) {
  if (x > y) goto gt;
  if (x < y) goto lt;
  return 19088743;
gt:
  return 305419896;
lt:
  return 4027576406U;
}
int main(void) { return foo(1, 2) != 0 ? 0 : 1; }
|};
    (* complex-ish global with address-of member access *)
    {|
struct complex_ish { double re; double im; };
struct complex_ish x;
double *bar(void) { return &x.im; }
int main(void) { *bar() = 1.5; return x.im > 1.0; }
|};
    (* array reduction loops *)
    {|
int r[6];
void f(int n) {
  while (--n) {
    r[0] += r[5];
    r[1] += r[0];
    r[2] += r[1];
    r[3] += r[2];
    r[4] += r[3];
    r[5] += r[4];
  }
}
int main(void) { f(3); return r[5] & 255; }
|};
    (* struct assignment through pointers *)
    {|
struct s2 { int a; int b; };
void foo(struct s2 *ptr) { ptr->a = 1; ptr->b = 2; }
int main(void) {
  struct s2 v;
  foo(&v);
  return v.a + v.b;
}
|};
    (* switch with fall-through *)
    {|
int classify(int c) {
  int r = 0;
  switch (c) {
  case 0:
  case 1:
    r = 10;
    break;
  case 2:
    r = 20;
  case 3:
    r += 1;
    break;
  default:
    r = -1;
    break;
  }
  return r;
}
int main(void) { return classify(2) == 21 ? 0 : 1; }
|};
    (* string processing with a loop *)
    {|
int my_strlen(char *s) {
  int n = 0;
  while (s[n]) n++;
  return n;
}
int main(void) {
  char buf[16];
  strcpy(buf, "hello");
  printf("%d\n", my_strlen(buf));
  return 0;
}
|};
    (* nested loops and accumulation *)
    {|
int acc;
int kernel(int n, int m) {
  int i, j;
  int total = 0;
  for (i = 0; i < n; i++) {
    for (j = 0; j < m; j++) {
      total += i * j;
    }
  }
  return total;
}
int main(void) {
  acc = kernel(5, 7);
  printf("%d\n", acc);
  return acc & 255;
}
|};
    (* function pointers avoided; recursion instead *)
    {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(10) == 55 ? 0 : 1; }
|};
    (* unsigned wrap and shifts *)
    {|
unsigned int hash(unsigned int x) {
  x ^= x >> 16;
  x *= 2654435769U;
  x ^= x >> 13;
  return x;
}
int main(void) { return (int)(hash(12345) & 255); }
|};
    (* do-while and continue *)
    {|
int count_odd(int n) {
  int count = 0;
  int i = 0;
  do {
    i++;
    if (i % 2 == 0) continue;
    count++;
  } while (i < n);
  return count;
}
int main(void) { return count_odd(9); }
|};
    (* ternary chains and comma *)
    {|
int sel(int a, int b, int c) {
  int m = a > b ? (a > c ? a : c) : (b > c ? b : c);
  return m;
}
int main(void) {
  int x = 3, y = 9, z = 5;
  printf("%d\n", sel(x, y, z));
  return 0;
}
|};
    (* enums and typedefs *)
    {|
typedef long long big_t;
enum color { RED, GREEN = 5, BLUE };
big_t scale(big_t v) { return v * (GREEN + 1); }
int main(void) { return (int)(scale(7) % 100); }
|};
    (* char arithmetic and casts *)
    {|
char rot13(char c) {
  if (c >= 97 && c <= 122) return (char)((c - 97 + 13) % 26 + 97);
  return c;
}
int main(void) {
  char s[6];
  strcpy(s, "hello");
  int i;
  for (i = 0; i < 5; i++) s[i] = rot13(s[i]);
  puts(s);
  return 0;
}
|};
    (* global state machine with switch in loop *)
    {|
int state;
int step(int input) {
  switch (state) {
  case 0:
    state = input ? 1 : 0;
    break;
  case 1:
    state = input ? 2 : 0;
    break;
  case 2:
    state = 2;
    break;
  default:
    state = 0;
    break;
  }
  return state;
}
int main(void) {
  int i;
  for (i = 0; i < 8; i++) step(i & 1);
  return state;
}
|};
  ]

(* Validate and normalise a template into the canonical pretty-printed
   form used by the fuzzers. *)
let of_template (src : string) : string option =
  match Parser.parse src with
  | Ok tu when (Typecheck.check tu).r_ok -> Some (Pretty.tu_to_string tu)
  | Ok _ | Error _ -> None

(* Build a corpus of [n] seeds: every template plus generated programs. *)
let corpus ?(n = 200) (rng : Rng.t) : string list =
  let from_templates = List.filter_map of_template templates in
  let generated =
    List.init
      (max 0 (n - List.length from_templates))
      (fun _ -> Ast_gen.gen_source rng)
  in
  from_templates @ generated
