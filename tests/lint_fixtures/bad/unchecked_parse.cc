// Golden fixture: flag values parsed by functions that cannot report a
// malformed value. Linted under a tools/ path each call must trip the
// unchecked-parse rule; under src/ none may.
#include <cstdlib>

void BadFlags(char** argv, int* threads, long* limit, long long* seed,
              double* rate) {
  *threads = std::atoi(argv[1]);
  *limit = atol(argv[2]);
  *seed = std::atoll(argv[3]);
  *rate = atof (argv[4]);
}
