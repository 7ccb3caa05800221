module timedrelease/benchmark

go 1.22

require timedrelease v0.0.0

replace timedrelease => ../
