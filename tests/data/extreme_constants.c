/* Subscript constants at the edge of int64_t: the dependence tests' constant
   differences and divisions overflow here (-1 - INT64_MAX / -1 and
   INT64_MAX - -1). Both pairs must stay dependent, never crash. */
double A[16];

int main() {
  int i;
  for (i = 0; i < 4; i++)
    A[-i - 1] = A[-i + 9223372036854775807];
  return 0;
}
