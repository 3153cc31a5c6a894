// Test helper: a rebench.manifest/1 object as the /1 writer rendered it
// for `suite --system archer2 --tag babelstream -n _o --repeats 2
// --probe sim --store S`, its facets and foms trimmed.  Two faceted omp
// runs come before two ocl runs that failed to concretize (no facets, no
// spec, no build steps), so a reader that carried one entry into the
// next would hand the ocl runs the omp facets.
#pragma once

#include <string_view>

namespace rebench::store {

inline constexpr std::string_view kVersion1Manifest =
    "{\"schema\":\"rebench.manifest/1\","
    "\"invocation\":{\"mode\":\"suite\",\"system\":\"archer2\","
    "\"account\":\"ec999\",\"repeats\":2,\"benchmark\":\"\","
    "\"ntimes\":-1,\"settings\":[],\"tag\":\"babelstream\",\"n\":\"_o\","
    "\"x\":\"\",\"faults\":\"\",\"retries\":-1,\"backoffBase\":-1.000000,"
    "\"backoffMultiplier\":-1.000000,\"backoffMax\":-1.000000,"
    "\"quarantineAfter\":-1,\"stageTimeout\":-1.000000,\"lanes\":-1,"
    "\"ciHalfwidth\":-1.000000,\"minRepeats\":-1,\"maxRepeats\":-1,"
    "\"withStore\":true,\"cache\":true,\"probe\":\"sim\"},"
    "\"runs\":[{\"test\":\"BabelstreamTest_omp\","
    "\"target\":\"archer2:compute\",\"repeat\":0,"
    "\"environ\":\"gcc@11.2.0\","
    "\"spec\":\"babelstream@4.0%gcc@11.2.0 model=omp+omp\","
    "\"specHash\":\"osl7u7v\",\"planHash\":\"87d19a90c145e131\","
    "\"binaryId\":\"f786198a5339bff6\","
    "\"buildSteps\":[\"module load cmake/3.25.1\","
    "\"spack install --reuse babelstream@4.0%gcc@11.2.0 model=omp+omp\"],"
    "\"launch\":\"srun --ntasks=1 --ntasks-per-node=1"
    " --cpus-per-task=128 BabelstreamTest_omp\",\"jobId\":\"1\","
    "\"outcome\":\"pass\",\"failureStage\":\"\",\"attempts\":1,"
    "\"facets\":{\"rusage_run_maxrss_kb\":\"22895\","
    "\"rusage_run_user_ms\":\"12393.034\"}},"
    "{\"test\":\"BabelstreamTest_omp\",\"target\":\"archer2:compute\","
    "\"repeat\":1,\"environ\":\"gcc@11.2.0\","
    "\"spec\":\"babelstream@4.0%gcc@11.2.0 model=omp+omp\","
    "\"specHash\":\"osl7u7v\",\"planHash\":\"87d19a90c145e131\","
    "\"binaryId\":\"f786198a5339bff6\","
    "\"buildSteps\":[\"module load cmake/3.25.1\","
    "\"spack install --reuse babelstream@4.0%gcc@11.2.0 model=omp+omp\"],"
    "\"launch\":\"srun --ntasks=1 --ntasks-per-node=1"
    " --cpus-per-task=128 BabelstreamTest_omp\",\"jobId\":\"1\","
    "\"outcome\":\"pass\",\"failureStage\":\"\",\"attempts\":1,"
    "\"facets\":{\"rusage_run_maxrss_kb\":\"41111\","
    "\"rusage_run_user_ms\":\"12271.048\"}},"
    "{\"test\":\"BabelstreamTest_ocl\",\"target\":\"archer2:compute\","
    "\"repeat\":0,\"environ\":\"\",\"spec\":\"\",\"specHash\":\"\","
    "\"planHash\":\"\",\"binaryId\":\"\",\"buildSteps\":[],"
    "\"launch\":\"\",\"jobId\":\"0\",\"outcome\":\"fail\","
    "\"failureStage\":\"concretize\",\"attempts\":1},"
    "{\"test\":\"BabelstreamTest_ocl\",\"target\":\"archer2:compute\","
    "\"repeat\":1,\"environ\":\"\",\"spec\":\"\",\"specHash\":\"\","
    "\"planHash\":\"\",\"binaryId\":\"\",\"buildSteps\":[],"
    "\"launch\":\"\",\"jobId\":\"0\",\"outcome\":\"fail\","
    "\"failureStage\":\"concretize\",\"attempts\":1}],"
    "\"foms\":[{\"test\":\"BabelstreamTest_omp\","
    "\"target\":\"archer2:compute\",\"fom\":\"Add\","
    "\"mean\":342021.581000,\"ci\":19427.283410,\"ess\":2.000,"
    "\"autocorr\":0.000000,\"repeats\":2},"
    "{\"test\":\"BabelstreamTest_omp\",\"target\":\"archer2:compute\","
    "\"fom\":\"Copy\",\"mean\":344687.902000,\"ci\":19043.053970,"
    "\"ess\":2.000,\"autocorr\":0.000000,\"repeats\":2}],"
    "\"artifacts\":[{\"name\":\"perflog\",\"hash\":\"9aa84fafd072a563\","
    "\"bytes\":1338}]}\n";

}  // namespace rebench::store
